"""Tests for cross-server replication: capability sets in the
directory, an independent copy on a second server, and the GC sweep
reaching every member of a set."""

import pytest

from repro.client import DirectoryClient, LocalBulletStub
from repro.directory import DirectoryRows, DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import BadRequestError
from repro.capability import Capability
from repro.net import Ethernet, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, run_process

from conftest import SMALL_DISK, make_bullet, small_testbed


@pytest.fixture
def twin_world(env):
    """Two Bullet servers + one directory server on one network."""
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet_a = make_bullet(env, transport=rpc, name="bullet-a")
    bullet_b = make_bullet(env, transport=rpc, name="bullet-b")
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet_a), small_testbed(),
                           transport=rpc, max_directories=8)
    dirs.format()
    run_process(env, dirs.boot())
    return rpc, bullet_a, bullet_b, dirs


def replicate_file(src_stub, dst_stub, cap, p_factor):
    """Process: copy the immutable file behind ``cap`` to another
    server; returns the new capability."""
    data = yield from src_stub.read(cap)
    return (yield from dst_stub.create(data, p_factor))


# ------------------------------------------------------- rows with sets


def test_rows_encode_capability_sets():
    cap1 = Capability(port=1, object=1, rights=0xFF, check=1)
    cap2 = Capability(port=2, object=9, rights=0xFF, check=2)
    rows = DirectoryRows(rows={"single": cap1, "replicated": (cap1, cap2)})
    decoded = DirectoryRows.decode(rows.encode())
    assert decoded.rows["single"] == (cap1,)
    assert decoded.rows["replicated"] == (cap1, cap2)


def test_rows_reject_empty_set():
    with pytest.raises(BadRequestError):
        DirectoryRows(rows={"bad": ()})


def test_rows_reject_non_capability():
    with pytest.raises(BadRequestError):
        DirectoryRows(rows={"bad": ("not a cap",)})


# ------------------------------------------------------------ replicate


def test_replicate_file_copies_bytes(env, twin_world):
    _rpc, bullet_a, bullet_b, _dirs = twin_world
    stub_a, stub_b = LocalBulletStub(bullet_a), LocalBulletStub(bullet_b)
    original = run_process(env, stub_a.create(b"replicate me", 1))
    copy = run_process(env, replicate_file(stub_a, stub_b, original, 1))
    assert copy.port == bullet_b.port
    assert run_process(env, stub_b.read(copy)) == b"replicate me"
    # The copy is independent: deleting the original leaves it intact.
    run_process(env, stub_a.delete(original))
    assert run_process(env, stub_b.read(copy)) == b"replicate me"


def test_directory_binds_and_returns_sets(env, twin_world):
    rpc, bullet_a, bullet_b, dirs = twin_world
    names = DirectoryClient(env, rpc, default_port=dirs.port)
    stub_a, stub_b = LocalBulletStub(bullet_a), LocalBulletStub(bullet_b)
    root = run_process(env, names.create_directory())
    primary = run_process(env, stub_a.create(b"data", 1))
    replica = run_process(env, replicate_file(stub_a, stub_b, primary, 1))
    run_process(env, names.append(root, "file", (primary, replica)))

    assert run_process(env, names.lookup(root, "file")) == primary
    cap_set = run_process(env, names.lookup_set(root, "file"))
    assert cap_set == [primary, replica]


def test_gc_touches_every_set_member(env, twin_world):
    """reachable_caps must include all replicas, so GC on either server
    keeps its member alive."""
    rpc, bullet_a, bullet_b, dirs = twin_world
    from repro.gc import gc_sweep

    stub_a, stub_b = LocalBulletStub(bullet_a), LocalBulletStub(bullet_b)
    root = run_process(env, dirs.create_directory())
    primary = run_process(env, stub_a.create(b"kept", 1))
    replica = run_process(env, replicate_file(stub_a, stub_b, primary, 1))
    run_process(env, dirs.append(root, "f", (primary, replica)))
    for _ in range(bullet_b.testbed.bullet.max_lives + 1):
        run_process(env, gc_sweep(bullet_b, [dirs]))
    # The replica on server B survived B's aging because the directory
    # entry reaches it.
    assert run_process(env, stub_b.read(replica)) == b"kept"
