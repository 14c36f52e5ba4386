"""E7 — the headline "factor of three" on a realistic workload.

The abstract: "The Bullet server is an innovative file server that
outperforms traditional file servers like SUN's NFS by more than a
factor of three."

We replay one trace with the cited size distribution (median 1 KB, 99 %
< 64 KB) and a read-heavy op mix against both servers and compare total
completion time.
"""

from repro.bench import (FileSizeDistribution, TraceGenerator, make_rig,
                         replay_bullet, replay_nfs)
from repro.units import KB

from conftest import save_result


def test_workload_replay_factor_of_three():
    sizes = FileSizeDistribution(maximum=256 * KB)
    trace = TraceGenerator(seed=7, sizes=sizes).generate(
        n_ops=120, prepopulate=20
    )
    rig = make_rig()
    bullet_time = sum(replay_bullet(rig, trace, 2).values())
    nfs_time = sum(replay_nfs(rig, trace).values())
    ratio = nfs_time / bullet_time
    reads = sum(1 for op in trace if op.kind == "read")
    creates = sum(1 for op in trace if op.kind == "create")
    deletes = sum(1 for op in trace if op.kind == "delete")
    save_result(
        "workload_replay",
        "\n".join([
            "Realistic-workload replay (E7)",
            "=" * 50,
            f"trace: {len(trace)} ops ({creates} create / {reads} read / "
            f"{deletes} delete), sizes median 1KB, 99% < 64KB",
            f"Bullet total completion: {bullet_time * 1000:10.1f} ms",
            f"NFS    total completion: {nfs_time * 1000:10.1f} ms",
            f"speedup: {ratio:.2f}x (paper claims 'more than a factor of three')",
        ]),
    )
    assert ratio > 3.0, f"overall speedup only {ratio:.2f}x"
