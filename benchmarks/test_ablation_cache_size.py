"""A12 — ablation: how much server RAM does the whole-file cache need?

§1 motivates the design with big memories ("memory sizes of at least 16
Megabytes are common today, enough to hold most files encountered in
practice"); §3 gives *all* remaining RAM to the cache. This sweep
replays one Zipf-popular trace (sizes per the cited distribution)
against servers with different cache sizes and reports hit rate and
mean read latency — showing where the paper's 14 MB lands on the curve.
"""

from dataclasses import replace

from repro.bench import (FileSizeDistribution, TraceGenerator, make_rig,
                         replay_bullet)
from repro.profiles import DEFAULT_TESTBED
from repro.units import KB, MB, to_msec

from conftest import save_result

CACHE_SIZES = [512 * KB, 2 * MB, 8 * MB, 14 * MB]


def run_cache_size(cache_bytes, trace):
    bullet_profile = replace(DEFAULT_TESTBED.bullet,
                             ram_bytes=cache_bytes
                             + DEFAULT_TESTBED.bullet.reserved_ram_bytes)
    testbed = replace(DEFAULT_TESTBED, bullet=bullet_profile)
    rig = make_rig(testbed=testbed, with_nfs=False, background_load=False)
    read_time = replay_bullet(rig, trace, 1)["read"]
    reads = sum(op.kind == "read" for op in trace)
    return rig.bullet.cache.stats.hit_rate, read_time / reads


def test_ablation_cache_size():
    # A heavier size profile than the paper's median-1KB UNIX mix, so the
    # sweep actually stresses the smaller caches (the 1 KB-median working
    # set fits in half a megabyte). maximum below the smallest swept
    # cache: every file must fit in server memory (§2's whole-file
    # constraint).
    sizes = FileSizeDistribution(median=48 * KB, maximum=384 * KB)
    trace = TraceGenerator(seed=23, sizes=sizes, read_fraction=0.75,
                           delete_fraction=0.05).generate(
        n_ops=300, prepopulate=60)
    sweep = {size: run_cache_size(size, trace) for size in CACHE_SIZES}
    lines = ["A12: server cache size vs hit rate and mean read latency",
             "=" * 60,
             f"{'cache':>10} {'hit rate':>10} {'mean read (ms)':>16}"]
    for size, (hit_rate, mean_read) in sweep.items():
        label = f"{size // MB} MB" if size >= MB else f"{size // KB} KB"
        lines.append(f"{label:>10} {hit_rate:>10.3f} "
                     f"{to_msec(mean_read):>16.1f}")
    save_result("ablation_cache_size", "\n".join(lines))

    rates = [sweep[size][0] for size in CACHE_SIZES]
    latencies = [sweep[size][1] for size in CACHE_SIZES]
    # More cache never hurts, and the paper-scale cache serves this
    # working set almost entirely from RAM.
    assert all(a <= b + 0.01 for a, b in zip(rates, rates[1:]))
    assert all(a >= b * 0.95 for a, b in zip(latencies, latencies[1:]))
    assert rates[-1] > 0.95
    assert rates[0] < rates[-1]
