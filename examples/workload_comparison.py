#!/usr/bin/env python3
"""Bullet vs SUN NFS on a realistic workload (the abstract's headline).

"The Bullet server ... outperforms traditional file servers like SUN's
NFS by more than a factor of three."

Replays one seeded trace — file sizes per the cited UNIX study (median
1 KB, 99 % < 64 KB), read-heavy, Zipf-popular — against both servers in
the same simulated testbed, and prints the per-op and total comparison.

Run:  python examples/workload_comparison.py
"""

from collections import defaultdict

from repro.bench import (FileSizeDistribution, TraceGenerator, make_rig,
                         replay_bullet, replay_nfs)
from repro.units import KB, to_msec


def main():
    sizes = FileSizeDistribution(maximum=256 * KB)
    trace = TraceGenerator(seed=1989, sizes=sizes).generate(
        n_ops=150, prepopulate=25)
    counts = defaultdict(int)
    for op in trace:
        counts[op.kind] += 1
    print(f"trace: {len(trace)} ops "
          f"({counts['create']} create / {counts['read']} read / "
          f"{counts['delete']} delete); sizes: median 1 KB, 99% < 64 KB\n")

    rig = make_rig(seed=1989)
    bullet = replay_bullet(rig, trace, 2)
    nfs = replay_nfs(rig, trace)

    print(f"{'op kind':<10} {'Bullet (ms)':>14} {'NFS (ms)':>14} {'speedup':>9}")
    print("-" * 50)
    for kind in ("create", "read", "delete"):
        if counts[kind] == 0:
            continue
        ratio = nfs[kind] / bullet[kind]
        print(f"{kind:<10} {to_msec(bullet[kind]):>14.1f} "
              f"{to_msec(nfs[kind]):>14.1f} {ratio:>8.1f}x")
    total_bullet = sum(bullet.values())
    total_nfs = sum(nfs.values())
    print("-" * 50)
    print(f"{'TOTAL':<10} {to_msec(total_bullet):>14.1f} "
          f"{to_msec(total_nfs):>14.1f} {total_nfs / total_bullet:>8.1f}x")
    print("\npaper's claim: 'outperforms ... by more than a factor of three'")
    assert total_nfs / total_bullet > 3.0


if __name__ == "__main__":
    main()
