"""Tests for the client stubs: the RPC plane end-to-end, the local
stub equivalence, and the client-side cache."""

import pytest

from repro.capability import RIGHT_READ, restrict
from repro.client import BulletClient, CachingBulletClient, LocalBulletStub
from repro.errors import (
    BadRequestError,
    NotFoundError,
    RightsError,
    ServerDownError,
)
from repro.net import Ethernet, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, run_process
from repro.units import KB

from conftest import make_bullet


@pytest.fixture
def rpc_rig(env):
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    client = BulletClient(env, rpc, bullet.port)
    return bullet, client


def test_rpc_create_read_roundtrip(env, rpc_rig):
    bullet, client = rpc_rig
    payload = bytes(range(256)) * 16
    cap = run_process(env, client.create(payload, 2))
    assert run_process(env, client.read(cap)) == payload
    assert run_process(env, client.size(cap)) == len(payload)
    assert env.now > 0


def test_rpc_delete_then_read_fails(env, rpc_rig):
    _bullet, client = rpc_rig
    cap = run_process(env, client.create(b"x", 1))
    run_process(env, client.delete(cap))
    with pytest.raises(NotFoundError):
        run_process(env, client.read(cap))


def test_rpc_modify(env, rpc_rig):
    _bullet, client = rpc_rig
    v1 = run_process(env, client.create(b"hello world", 1))
    v2 = run_process(env, client.modify(v1, 6, 5, b"bullet", 1))
    assert run_process(env, client.read(v2)) == b"hello bullet"
    assert run_process(env, client.read(v1)) == b"hello world"


def test_rpc_restrict(env, rpc_rig):
    _bullet, client = rpc_rig
    owner = run_process(env, client.create(b"data", 1))
    reader = run_process(env, client.restrict(owner, RIGHT_READ))
    assert reader.rights == RIGHT_READ
    assert run_process(env, client.read(reader)) == b"data"
    with pytest.raises(RightsError):
        run_process(env, client.delete(reader))


def test_rpc_stat(env, rpc_rig):
    _bullet, client = rpc_rig
    cap = run_process(env, client.create(b"x", 1))
    status = run_process(env, client.stat(cap))
    assert status["files"] == 1
    assert status["creates"] == 1


def test_rpc_errors_marshal_across_wire(env, rpc_rig):
    _bullet, client = rpc_rig
    cap = run_process(env, client.create(b"x", 1))
    with pytest.raises(BadRequestError):
        run_process(env, client.create(b"y", 99))  # bad p-factor
    # The server survives and keeps serving.
    assert run_process(env, client.read(cap)) == b"x"


def test_server_crash_fails_clients(env, rpc_rig):
    bullet, client = rpc_rig
    cap = run_process(env, client.create(b"x", 1))
    bullet.crash()

    def attempt():
        try:
            yield from client.read(cap)
        except ServerDownError:
            return "down"

    # A fresh client call hits the crashed endpoint. The endpoint is
    # marked down, so trans times out in the locate phase.
    client.timeout = 0.5
    assert run_process(env, attempt()) == "down"


def test_local_stub_equivalent_results(env):
    """The local stub and the RPC plane must return identical data (the
    timing differs, the functionality must not)."""
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    remote = BulletClient(env, rpc, bullet.port)
    local = LocalBulletStub(bullet)

    cap_r = run_process(env, remote.create(b"same bytes", 1))
    cap_l = run_process(env, local.create(b"same bytes", 1))
    assert run_process(env, remote.read(cap_l)) == b"same bytes"
    assert run_process(env, local.read(cap_r)) == b"same bytes"
    assert run_process(env, local.size(cap_r)) == run_process(
        env, remote.size(cap_l))


# ----------------------------------------------------------- client cache


def test_caching_client_hit_avoids_rpc(env, rpc_rig):
    bullet, client = rpc_rig
    caching = CachingBulletClient(client, capacity_bytes=64 * KB)
    cap = run_process(env, caching.create(b"cache me", 1))
    assert run_process(env, caching.read(cap)) == b"cache me"
    reads_at_server = bullet.stats.reads
    t0 = env.now
    assert run_process(env, caching.read(cap)) == b"cache me"
    assert bullet.stats.reads == reads_at_server  # no server involvement
    assert env.now == t0                          # and zero simulated time
    assert caching.hits == 1 and caching.misses == 1


def test_caching_client_size_from_cache(env, rpc_rig):
    _bullet, client = rpc_rig
    caching = CachingBulletClient(client, capacity_bytes=64 * KB)
    cap = run_process(env, caching.create(b"12345", 1))
    run_process(env, caching.read(cap))
    assert run_process(env, caching.size(cap)) == 5


def test_caching_client_lru_capacity(env, rpc_rig):
    _bullet, client = rpc_rig
    caching = CachingBulletClient(client, capacity_bytes=10 * KB)
    caps = [run_process(env, caching.create(bytes([i]) * (4 * KB), 1))
            for i in range(3)]
    for cap in caps:
        run_process(env, caching.read(cap))
    assert caching.cache.cached_bytes <= 10 * KB
    # Oldest entry was evicted; rereading it is a miss but still correct.
    misses_before = caching.misses
    assert run_process(env, caching.read(caps[0])) == bytes([0]) * (4 * KB)
    assert caching.misses == misses_before + 1


def test_caching_client_oversized_file_not_cached(env, rpc_rig):
    _bullet, client = rpc_rig
    caching = CachingBulletClient(client, capacity_bytes=1 * KB)
    cap = run_process(env, caching.create(bytes(4 * KB), 1))
    run_process(env, caching.read(cap))
    assert caching.cache.cached_bytes == 0


def test_caching_client_delete_invalidates(env, rpc_rig):
    _bullet, client = rpc_rig
    caching = CachingBulletClient(client, capacity_bytes=64 * KB)
    cap = run_process(env, caching.create(b"bye", 1))
    run_process(env, caching.read(cap))
    run_process(env, caching.delete(cap))
    with pytest.raises(NotFoundError):
        run_process(env, caching.read(cap))


def test_caching_client_rejects_bad_capacity(env, rpc_rig):
    _bullet, client = rpc_rig
    with pytest.raises(ValueError):
        CachingBulletClient(client, capacity_bytes=0)
