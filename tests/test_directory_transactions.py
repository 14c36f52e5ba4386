"""Tests for atomic multi-entry directory updates (update_many)."""

import pytest

from repro.capability import Capability, RIGHT_CREATE, RIGHT_READ, restrict
from repro.client import BulletClient, DirectoryClient, LocalBulletStub
from repro.directory import DIR_OPCODES, DirectoryServer
from repro.directory.records import (
    pack_cap_set,
    pack_changes,
    unpack_cap_set,
    unpack_changes,
)
from repro.disk import VirtualDisk
from repro.errors import BadRequestError, NotFoundError, RightsError, Status
from repro.net import Ethernet, RpcRequest, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import run_process

from conftest import SMALL_DISK, make_bullet, small_testbed


@pytest.fixture
def world(env):
    bullet = make_bullet(env)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed())
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    return bullet, dirs


def new_file(env, bullet, data):
    return run_process(env, bullet.create(data, 1))


def test_update_many_binds_and_removes_in_one_version(env, world):
    bullet, dirs = world
    root = run_process(env, dirs.create_directory())
    a = new_file(env, bullet, b"a")
    b = new_file(env, bullet, b"b")
    run_process(env, dirs.append(root, "old", a))
    versions_before = len(run_process(env, dirs.history(root)))

    run_process(env, dirs.update_many(root, {
        "old": None,           # remove
        "new1": a,             # bind
        "new2": b,             # bind
    }))
    assert run_process(env, dirs.list_names(root)) == ["new1", "new2"]
    # Exactly ONE new version for the whole transaction.
    assert len(run_process(env, dirs.history(root))) == versions_before + 1


def test_update_many_atomic_swap(env, world):
    """The classic need: swap two bindings with no intermediate state."""
    bullet, dirs = world
    root = run_process(env, dirs.create_directory())
    blue = new_file(env, bullet, b"blue")
    green = new_file(env, bullet, b"green")
    run_process(env, dirs.append(root, "active", blue))
    run_process(env, dirs.append(root, "standby", green))

    run_process(env, dirs.update_many(root, {
        "active": green,
        "standby": blue,
    }))
    stub = LocalBulletStub(bullet)
    active = run_process(env, dirs.lookup(root, "active"))
    standby = run_process(env, dirs.lookup(root, "standby"))
    assert run_process(env, stub.read(active)) == b"green"
    assert run_process(env, stub.read(standby)) == b"blue"


def test_update_many_failure_changes_nothing(env, world):
    """One bad change (removing a missing name) aborts the whole batch."""
    bullet, dirs = world
    root = run_process(env, dirs.create_directory())
    a = new_file(env, bullet, b"a")
    run_process(env, dirs.append(root, "keep", a))
    with pytest.raises(NotFoundError):
        run_process(env, dirs.update_many(root, {
            "added": a,
            "ghost": None,  # fails
        }))
    # Nothing landed.
    assert run_process(env, dirs.list_names(root)) == ["keep"]


def test_update_many_rights(env, world):
    bullet, dirs = world
    root = run_process(env, dirs.create_directory())
    a = new_file(env, bullet, b"a")
    run_process(env, dirs.append(root, "x", a))
    create_only = restrict(root, RIGHT_CREATE | RIGHT_READ)
    # Pure binds need only CREATE...
    run_process(env, dirs.update_many(create_only, {"y": a}))
    # ...but any removal also needs DELETE.
    with pytest.raises(RightsError):
        run_process(env, dirs.update_many(create_only, {"x": None}))


def test_update_many_validation(env, world):
    _bullet, dirs = world
    root = run_process(env, dirs.create_directory())
    with pytest.raises(BadRequestError):
        run_process(env, dirs.update_many(root, {}))
    with pytest.raises(BadRequestError):
        run_process(env, dirs.update_many(root, {"a/b": None}))


def test_update_many_over_rpc(env):
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed(),
                           transport=rpc)
    dirs.format()
    run_process(env, dirs.boot())
    names = DirectoryClient(env, rpc, default_port=dirs.port)
    bullet_client = BulletClient(env, rpc, bullet.port)

    root = run_process(env, names.create_directory())
    a = run_process(env, bullet_client.create(b"a", 1))
    b = run_process(env, bullet_client.create(b"b", 1))
    run_process(env, names.append(root, "temp", a))
    run_process(env, names.update_many(root, {
        "temp": None,
        "pair": (a, b),   # a capability set through the wire
        "solo": b,
    }))
    assert run_process(env, names.list_names(root)) == ["pair", "solo"]
    assert run_process(env, names.lookup_set(root, "pair")) == [a, b]


def test_update_many_refuses_a_body_its_counts_do_not_cover(env):
    """Regression: the server decoded only the capabilities the counts
    announced, so a surplus capability was dropped without a word, and a
    negative count decoded as an empty set."""
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed(),
                           transport=rpc)
    dirs.format()
    run_process(env, dirs.boot())
    root = run_process(env, dirs.create_directory())
    a = run_process(env, bullet.create(b"a", 1))
    b = run_process(env, bullet.create(b"b", 1))

    def update_many(pairs, body):
        return run_process(env, rpc.trans(dirs.port, RpcRequest(
            opcode=DIR_OPCODES["UPDATE_MANY"], cap=root, args=pairs,
            body=body)))

    two = a.pack() + b.pack()
    for pairs, body in ((("a", 1),), two), ((("a", 2),), a.pack()), \
            ((("a", -1), ("b", 2)), two), ((("a", 0),), a.pack()):
        assert update_many(pairs, body).status == Status.BAD_REQUEST
    assert run_process(env, dirs.list_names(root)) == []
    assert update_many((("a", 2),), two).ok
    assert list(run_process(env, dirs.lookup_set(root, "a"))) == [a, b]


def test_cap_set_codec_round_trips():
    a = Capability(port=7, object=1, rights=RIGHT_READ, check=11)
    b = Capability(port=7, object=2, rights=RIGHT_CREATE, check=22)
    assert unpack_cap_set(pack_cap_set(a)) == (a,)
    assert unpack_cap_set(pack_cap_set([a, b])) == (a, b)
    changes = {"gone": None, "pair": (a, b), "solo": b}
    pairs, body = pack_changes(changes)
    assert pairs == (("gone", 0), ("pair", 2), ("solo", 1))
    assert unpack_changes(pairs, body) == {
        "gone": None, "pair": (a, b), "solo": (b,)}
    with pytest.raises(BadRequestError):
        unpack_cap_set(b"")
    with pytest.raises(BadRequestError):
        unpack_cap_set(body[:-1])
