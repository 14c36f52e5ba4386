"""The concurrent service plane: online compaction racing READ misses
and CREATEs (the torn-read regression this PR exists for), the worker
pool overlapping requests, and the bounded verified-capability cache.
(Throughput scaling with workers is the ``worker_scaling`` experiment,
held to its artifact by ``tests/test_obs_bench.py``.)"""

import pytest

from repro.client import BulletClient
from repro.core import BulletServer, VerifiedCapCache, compact_disk
from repro.errors import BadRequestError
from repro.net import Ethernet, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import run_process
from repro.units import KB

from conftest import make_bullet
from test_concurrency import check_bullet_invariants


def fragment(env, bullet, n=12, size=32 * KB):
    """Create n files, delete every other one: many holes, n/2 movable
    survivors. Returns [(cap, payload)] for the survivors."""
    caps = [run_process(env, bullet.create(bytes([0x30 + i]) * size, 1))
            for i in range(n)]
    survivors = []
    for i, cap in enumerate(caps):
        if i % 2 == 0:
            run_process(env, bullet.delete(cap))
        else:
            survivors.append((cap, bytes([0x30 + i]) * size))
    return survivors


def test_online_compaction_with_concurrent_read_misses(env):
    """The torn-read property. A compaction pass runs while readers
    force cache misses on every file it is moving: each read must block
    on the file's write lock and return intact bytes from whichever
    extent the inode points at — never a half-written destination."""
    bullet = make_bullet(env)
    survivors = fragment(env, bullet)
    for cap, _payload in survivors:
        bullet.evict(cap.object)  # every read goes to disk
    torn = []

    def reader(index, cap, payload):
        yield env.timeout(index * 2e-4)
        for _round in range(4):
            data = yield from bullet.read(cap)
            if data != payload:
                torn.append((index, cap.object))
            bullet.evict(cap.object)
            yield env.timeout(1e-3)

    compaction = env.process(compact_disk(bullet))
    for index, (cap, payload) in enumerate(survivors):
        env.process(reader(index, cap, payload))
    env.run()
    assert not torn, f"torn reads during online compaction: {torn}"
    assert compaction.ok
    assert compaction.value.files_moved > 0  # the pass really moved data
    check_bullet_invariants(bullet)


def test_online_compaction_with_concurrent_creates(env):
    """The regression proper: CREATEs race the pass for the very holes
    it is compacting into. The destination claim (allocate-before-copy)
    and the per-file write lock keep the two from ever double-booking
    blocks. The pre-fix pass (inode repointed and free map mutated
    before the data writes landed, no locks) fails this test with the
    exact extent-overlap corruption §3's startup scan exists to catch
    (verified by swapping the old ordering back in)."""
    bullet = make_bullet(env)
    survivors = fragment(env, bullet)
    created = []

    def creator():
        for i in range(6):
            payload = bytes([0x60 + i]) * (24 * KB)
            cap = yield from bullet.create(payload, 2)
            created.append((cap, payload))
            yield env.timeout(2e-3)

    compaction = env.process(compact_disk(bullet))
    env.process(creator())
    env.run()
    assert compaction.ok
    assert len(created) == 6
    check_bullet_invariants(bullet)

    # Reboot purely from disk: the startup scan must find a consistent
    # volume (it raises on any bad inode), every file byte-intact.
    bullet.crash()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    env.run(until=env.process(reborn.boot()))
    for cap, payload in survivors + created:
        assert run_process(env, reborn.read(cap)) == payload
    check_bullet_invariants(reborn)


def test_worker_pool_overlaps_requests(env):
    """With workers=4 a tiny read issued during a 1 MB transfer
    completes *before* it — the inverse of the pinned workers=1
    responsiveness test."""
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc, workers=4)
    client = BulletClient(env, rpc, bullet.port)
    big = run_process(env, client.create(bytes(1024 * KB), 1))
    small = run_process(env, client.create(b"quick", 1))
    finish = {}

    def big_reader():
        yield from client.read(big)
        finish["big"] = env.now

    def small_reader():
        yield env.timeout(1e-4)  # arrive while the big read is in service
        yield from client.read(small)
        finish["small"] = env.now

    env.process(big_reader())
    env.process(small_reader())
    env.run()
    assert finish["small"] < finish["big"]
    assert bullet.status()["workers"] == 4


def test_worker_count_is_validated(env):
    with pytest.raises(BadRequestError):
        make_bullet(env, workers=0)


def test_verified_cap_cache_is_bounded_lru():
    cache = VerifiedCapCache(3)

    def key(obj):
        return (obj, 0xFF, 1000 + obj)

    for obj in (1, 2, 3):
        cache.add(key(obj))
    assert cache.hit(key(1))  # refresh: LRU order is now 2, 3, 1
    cache.add(key(4))         # evicts 2, the least recently used
    assert len(cache) == 3
    assert not cache.hit(key(2))
    assert cache.hit(key(3)) and cache.hit(key(1)) and cache.hit(key(4))
    with pytest.raises(BadRequestError):
        VerifiedCapCache(0)


def test_verified_cap_cache_forget_object():
    cache = VerifiedCapCache(8)
    cache.add((5, 1, 10))
    cache.add((5, 2, 11))
    cache.add((6, 1, 12))
    cache.forget_object(5)  # the DELETE path: one object's entries go
    assert len(cache) == 1
    assert not cache.hit((5, 1, 10)) and not cache.hit((5, 2, 11))
    assert cache.hit((6, 1, 12))
    cache.forget_object(99)  # unknown object: no-op
    assert len(cache) == 1


def test_server_cap_cache_stays_bounded(env):
    """End to end: a stream of distinct capabilities cannot grow the
    server's verified-cap cache past its configured bound."""
    from conftest import small_testbed

    bullet = make_bullet(env, testbed=small_testbed(cap_cache_entries=4))
    caps = [run_process(env, bullet.create(bytes([i]) * 64, 1))
            for i in range(8)]
    for cap in caps:
        run_process(env, bullet.read(cap))
    assert bullet.status()["verified_caps_cached"] <= 4
