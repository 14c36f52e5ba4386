"""The UNIX emulation composed entirely out of RPC clients: syscalls on
one host, Bullet and directory servers across the simulated network —
the deployment shape real Amoeba workstations used."""

import pytest

from repro.client import BulletClient, DirectoryClient, LocalBulletStub
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import NotFoundError
from repro.net import Ethernet, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import run_process
from repro.unixemu import UnixEmulation

from conftest import SMALL_DISK, make_bullet, small_testbed


@pytest.fixture
def remote_unix(env):
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed(),
                           transport=rpc)
    dirs.format()
    run_process(env, dirs.boot())
    names = DirectoryClient(env, rpc, default_port=dirs.port)
    root = run_process(env, names.create_directory())
    unix = UnixEmulation(env, BulletClient(env, rpc, bullet.port),
                         names, root)
    return unix, bullet, env


def test_full_session_over_the_network(remote_unix):
    unix, bullet, env = remote_unix

    def session():
        yield from unix.mkdir("/work")
        fd = yield from unix.open("/work/report.txt", "w")
        yield from unix.write(fd, b"written across the wire")
        yield from unix.close(fd)
        fd = yield from unix.open("/work/report.txt", "r")
        data = yield from unix.read(fd, 100)
        yield from unix.close(fd)
        st = yield from unix.stat("/work/report.txt")
        return data, st

    data, st = run_process(env, session())
    assert data == b"written across the wire"
    assert st == {"size": 23, "is_directory": False}
    assert env.now > 0.01  # real network round trips happened


def test_rename_and_unlink_over_the_network(remote_unix):
    unix, _bullet, env = remote_unix

    def session():
        fd = yield from unix.open("/a", "w")
        yield from unix.write(fd, b"contents")
        yield from unix.close(fd)
        yield from unix.rename("/a", "/b")
        fd = yield from unix.open("/b", "r")
        data = yield from unix.read(fd, 10)
        yield from unix.close(fd)
        yield from unix.unlink("/b")
        try:
            yield from unix.open("/b", "r")
        except NotFoundError:
            return data, "gone"

    assert run_process(env, session()) == (b"contents", "gone")


def test_listdir_over_the_network(remote_unix):
    unix, _bullet, env = remote_unix

    def session():
        yield from unix.mkdir("/dir")
        for name in ("x", "y"):
            fd = yield from unix.open(f"/dir/{name}", "w")
            yield from unix.write(fd, b"1")
            yield from unix.close(fd)
        return (yield from unix.listdir("/dir"))

    assert run_process(env, session()) == ["x", "y"]


def test_versioning_behaviour_identical_to_local_plane(remote_unix):
    """Each dirty close creates a new file and deletes the old — same
    semantics as the local-plane tests."""
    unix, bullet, env = remote_unix

    def session():
        fd = yield from unix.open("/doc", "w")
        yield from unix.write(fd, b"v1")
        cap1 = yield from unix.close(fd)
        fd = yield from unix.open("/doc", "w")
        yield from unix.write(fd, b"v2")
        cap2 = yield from unix.close(fd)
        return cap1, cap2

    cap1, cap2 = run_process(env, session())
    assert cap1.object != cap2.object
    with pytest.raises(NotFoundError):
        run_process(env, bullet.read(cap1))
