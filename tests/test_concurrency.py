"""Concurrency stress tests: many clients interleaving over the RPC
plane against single-threaded servers, then invariant + durability
checks. These exercise the interleavings a single client never
produces (P-FACTOR 0 background writes racing deletes and reallocation,
cache eviction under parallel load, directory mutation ordering)."""

import pytest

from repro.client import BulletClient, DirectoryClient, LocalBulletStub
from repro.core import BulletServer
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import NoSpaceError, ReproError
from repro.net import Ethernet, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, SeededStream, run_process
from repro.units import KB

from conftest import SMALL_DISK, make_bullet, small_testbed


def make_rpc_world(env, inode_count=2048, **server_kwargs):
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc,
                         testbed=small_testbed(inode_count=inode_count),
                         **server_kwargs)
    return rpc, bullet


def check_bullet_invariants(bullet):
    bullet.disk_free.check_invariants()
    bullet.cache.check_invariants()
    used = 0
    for number, inode in bullet.table.live_inodes():
        blocks = bullet.layout.blocks_for(inode.size)
        used += blocks
        if blocks:
            assert not bullet.disk_free.is_free(inode.start_block, blocks)
    assert used == bullet.disk_free.used_units


def test_many_clients_mixed_ops_preserve_invariants(env):
    rpc, bullet = make_rpc_world(env)
    client = BulletClient(env, rpc, bullet.port)
    n_clients = 8
    surviving: dict = {}
    errors: list = []

    def worker(index):
        stream = SeededStream(100 + index, "ops")
        mine: list = []  # (cap, payload)
        for step in range(30):
            roll = stream.random()
            if roll < 0.5 or not mine:
                size = int(stream.lognormal_bounded(2 * KB, 1.2, 1, 16 * KB))
                payload = bytes([index]) * size
                p = stream.randint(0, 2)
                try:
                    cap = yield from client.create(payload, p)
                except (NoSpaceError, ReproError) as exc:
                    errors.append(exc)
                    continue
                mine.append((cap, payload))
            elif roll < 0.8:
                cap, payload = mine[stream.randint(0, len(mine) - 1)]
                data = yield from client.read(cap)
                assert data == payload, f"client {index} read corruption"
            else:
                cap, _payload = mine.pop(stream.randint(0, len(mine) - 1))
                yield from client.delete(cap)
        for cap, payload in mine:
            surviving[cap] = payload

    for index in range(n_clients):
        env.process(worker(index))
    env.run()
    assert not errors, errors
    check_bullet_invariants(bullet)
    assert bullet.table.live_count == len(surviving)

    # Durability: reboot purely from disk; every surviving file intact.
    bullet.crash()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    report = env.run(until=env.process(reborn.boot()))
    assert report.live_files == len(surviving)
    for cap, payload in surviving.items():
        assert run_process(env, reborn.read(cap)) == payload
    check_bullet_invariants(reborn)


def test_p0_create_delete_reallocate_race(env):
    """P-FACTOR 0 replies before the disk writes; an immediate delete
    frees the extent, and a new create may reuse it. FIFO disk queues
    must make the final on-disk state match the final logical state."""
    rpc, bullet = make_rpc_world(env)
    client = BulletClient(env, rpc, bullet.port)

    def scenario():
        caps = []
        for round_number in range(10):
            cap = yield from client.create(b"A" * 8 * KB, 0)
            yield from client.delete(cap)
            cap2 = yield from client.create(bytes([round_number]) * 8 * KB, 0)
            caps.append((round_number, cap2))
        return caps

    caps = run_process(env, scenario())
    env.run()  # drain every background write
    check_bullet_invariants(bullet)
    bullet.crash()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    env.run(until=env.process(reborn.boot()))
    for round_number, cap in caps:
        assert run_process(env, reborn.read(cap)) == bytes([round_number]) * 8 * KB


def test_cache_thrash_under_parallel_load(env):
    """Working set far beyond the cache, parallel readers: every read
    still returns the right bytes and the cache invariants hold."""
    rpc, bullet = make_rpc_world(env)
    client = BulletClient(env, rpc, bullet.port)
    # 2 MB cache; 16 files x 384 KB = 6 MB working set.
    files = []
    for i in range(16):
        payload = bytes([i]) * (384 * KB)
        cap = run_process(env, client.create(payload, 1))
        files.append((cap, payload))
    done = []

    def reader(index):
        stream = SeededStream(index, "reads")
        for _ in range(8):
            cap, payload = files[stream.randint(0, len(files) - 1)]
            data = yield from client.read(cap)
            assert data == payload
        done.append(index)

    for index in range(6):
        env.process(reader(index))
    env.run()
    assert len(done) == 6
    assert bullet.cache.stats.evictions > 0
    check_bullet_invariants(bullet)


def test_directory_concurrent_appends_all_land(env):
    rpc, bullet = make_rpc_world(env)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed(),
                           transport=rpc, max_directories=8)
    dirs.format()
    run_process(env, dirs.boot())
    names = DirectoryClient(env, rpc, default_port=dirs.port)
    bullet_client = BulletClient(env, rpc, bullet.port)
    root = run_process(env, names.create_directory())

    def binder(index):
        cap = yield from bullet_client.create(bytes([index]), 1)
        yield from names.append(root, f"file-{index:02d}", cap)

    for index in range(12):
        env.process(binder(index))
    env.run()
    listing = run_process(env, names.list_names(root))
    assert listing == [f"file-{i:02d}" for i in range(12)]
    # The version chain recorded every step.
    history = run_process(env, names.history(root))
    assert len(history) >= 13


def test_server_remains_responsive_during_large_transfer(env):
    """A 1 MB read occupies the single-threaded server; a tiny read
    issued meanwhile completes after it, not never. (Pinned to
    workers=1: head-of-line blocking IS the paper's semantics here.)"""
    rpc, bullet = make_rpc_world(env, workers=1)
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
    assert finish["small"] > 0
    # Single-threaded service: the small read waited for the big one.
    assert finish["small"] >= finish["big"] * 0.9
