"""A4 — ablation: fragmentation and compaction (§3's trade-off).

"In effect, the conscious choice of using contiguous files may require
buying, say, an 800 MB disk to store 500 MB worth of files (the rest
being lost to fragmentation unless compaction is done)."

We churn create/delete traffic on a small volume until a large
allocation fails purely from fragmentation, under first-fit (the
paper's choice) and best-fit; then run the 3 a.m. compaction and show
the allocation succeeds. Metrics: external fragmentation, largest hole,
usable fraction at failure, compaction cost.
"""

from dataclasses import replace

from repro.bench import make_rig, timed
from repro.core import compact_disk
from repro.errors import NoSpaceError
from repro.profiles import DEFAULT_TESTBED
from repro.sim import SeededStream, run_process
from repro.units import KB, MB, to_msec

from conftest import save_result


def churn_until_fragmented(rig, stream, target_alloc):
    """Create/delete random-size files until ``target_alloc`` bytes no
    longer fit contiguously; returns fragmentation metrics."""
    env, server = rig.env, rig.bullet
    live = []
    while True:
        free_bytes = server.disk_free.free_units * server.layout.block_size
        largest = server.disk_free.largest_hole * server.layout.block_size
        if free_bytes >= target_alloc and largest < target_alloc:
            return {
                "files": len(live),
                "free_bytes": free_bytes,
                "largest_hole": largest,
                "fragmentation": server.disk_free.external_fragmentation(),
            }
        size = int(stream.lognormal_bounded(24 * KB, 1.2, 1 * KB, 256 * KB))
        if free_bytes < target_alloc or stream.random() < 0.35 and live:
            if not live:
                raise AssertionError("volume exhausted without fragmenting")
            _t, _ = timed(env, server.delete(live.pop(stream.randint(0, len(live) - 1))))
            continue
        try:
            _t, cap = timed(env, server.create(bytes(size), 1))
        except NoSpaceError:
            _t, _ = timed(env, server.delete(live.pop(stream.randint(0, len(live) - 1))))
            continue
        live.append(cap)


def run_strategy(strategy, target_alloc):
    small_disk = replace(DEFAULT_TESTBED.disk, capacity_bytes=24 * MB,
                         cylinders=96)
    testbed = replace(DEFAULT_TESTBED, disk=small_disk)
    rig = make_rig(testbed=testbed, with_nfs=False, background_load=False)
    # Rebuild the free list under the requested strategy.
    from repro.core import BulletServer
    from repro.disk import MirroredDiskSet

    if strategy != "first_fit":
        rig.bullet.crash()
        server = BulletServer(rig.env, rig.bullet.mirror, testbed,
                              name="bullet-bf", alloc_strategy=strategy)
        rig.env.run(until=rig.env.process(server.boot()))
        rig.bullet = server
    env, server = rig.env, rig.bullet
    stream = SeededStream(31, f"churn-{strategy}")
    metrics = churn_until_fragmented(rig, stream, target_alloc)
    # The large create fails now...
    try:
        run_process(env, server.create(bytes(target_alloc), 1))
        failed = False
    except NoSpaceError:
        failed = True
    # ...compaction fixes it.
    report = run_process(env, compact_disk(server))
    cap = run_process(env, server.create(bytes(target_alloc), 1))
    ok = run_process(env, server.size(cap)) == target_alloc
    return metrics, failed, report, ok


def test_ablation_fragmentation_and_compaction():
    target = 1 * MB

    outcome = {s: run_strategy(s, target) for s in ("first_fit", "best_fit")}
    lines = ["Ablation A4: fragmentation and the 3 a.m. compaction",
             "=" * 64]
    for strategy, (metrics, failed, report, ok) in outcome.items():
        lines.extend([
            f"[{strategy}] at first unfittable {target // KB} KB allocation:",
            f"  live files            : {metrics['files']}",
            f"  free bytes            : {metrics['free_bytes']}",
            f"  largest hole (bytes)  : {metrics['largest_hole']}",
            f"  external fragmentation: {metrics['fragmentation']:.3f}",
            f"  large create failed   : {failed}",
            f"  compaction: moved {report.files_moved} files "
            f"({report.blocks_moved} blocks) in {to_msec(report.duration):.0f} ms sim",
            f"  post-compaction create of {target // KB} KB: {'OK' if ok else 'FAILED'}",
            "",
        ])
    save_result("ablation_fragmentation", "\n".join(lines))

    for strategy, (metrics, failed, report, ok) in outcome.items():
        assert failed, f"{strategy}: fragmentation never blocked the allocation"
        assert metrics["free_bytes"] >= target
        assert ok, f"{strategy}: compaction did not enable the allocation"
        assert report.fragmentation_after <= report.fragmentation_before
