"""A3 — ablation: the whole-file RAM cache.

Two measurements:

1. Warm vs cold read latency per file size (the value of "the file will
   be completely in memory").
2. LRU vs FIFO eviction hit rate under a Zipf-popular trace replayed
   through a capacity-limited :class:`BulletCache` — the paper chose LRU
   ("an age field to implement an LRU cache strategy").
"""

from repro.bench import TraceGenerator, make_rig, timed
from repro.core import BulletCache
from repro.sim import run_process
from repro.units import KB, MB, to_msec

from conftest import save_result


def warm_vs_cold(rig):
    env, client = rig.env, rig.bullet_client
    results = {}
    for size in (4 * KB, 64 * KB, 1 * MB):
        _t, cap = timed(env, client.create(bytes(size), 2))
        rig.bullet.evict(cap.object)
        cold, _ = timed(env, client.read(cap))
        warm, _ = timed(env, client.read(cap))
        timed(env, client.delete(cap))
        results[size] = (cold, warm)
    return results


def lru_vs_fifo_hit_rate(capacity=256 * KB, n_ops=600):
    rates = {}
    for policy in ("lru", "fifo"):
        trace = TraceGenerator(seed=13).generate(n_ops=n_ops, prepopulate=40)
        cache = BulletCache(capacity, rnode_count=512, policy=policy)
        stored = {}
        for op in trace:
            if op.kind == "create":
                stored[op.file_id] = op.size
                if cache.peek(op.file_id) is None and op.size <= capacity:
                    cache.insert(op.file_id, bytes(min(op.size, capacity)))
            elif op.kind == "read":
                rnode = cache.lookup(op.file_id)
                if rnode is None and stored[op.file_id] <= capacity:
                    cache.insert(op.file_id, bytes(stored[op.file_id]))
                elif rnode is not None:
                    cache.touch(rnode)
            else:
                cache.remove(op.file_id)
                stored.pop(op.file_id, None)
        rates[policy] = cache.stats.hit_rate
    return rates


def test_ablation_cache():
    rig = make_rig(with_nfs=False, background_load=False)
    latencies, rates = warm_vs_cold(rig), lru_vs_fifo_hit_rate()
    lines = ["Ablation A3: the whole-file RAM cache", "=" * 56,
             f"{'size':>10} {'cold read (ms)':>16} {'warm read (ms)':>16} {'speedup':>9}"]
    for size, (cold, warm) in latencies.items():
        lines.append(f"{size:>10} {to_msec(cold):>16.1f} {to_msec(warm):>16.1f} "
                     f"{cold / warm:>8.1f}x")
    lines.append("")
    lines.append(f"Zipf-trace hit rate: LRU {rates['lru']:.3f} "
                 f"vs FIFO {rates['fifo']:.3f}")
    save_result("ablation_cache", "\n".join(lines))

    for size, (cold, warm) in latencies.items():
        assert warm < cold, f"cache did not help at {size}"
    # Small files: the disk positioning dominates, so the cache wins big
    # (the residual warm cost is the RPC itself).
    cold4, warm4 = latencies[4 * KB]
    assert cold4 / warm4 > 2
    # LRU should match or beat FIFO on a popularity-skewed trace.
    assert rates["lru"] >= rates["fifo"] - 0.01
