"""Tests for the UNIX emulation over Bullet + directory."""

import os

import pytest

from repro.client import LocalBulletStub
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import BadRequestError, NotFoundError
from repro.sim import run_process
from repro.unixemu import UnixEmulation

from conftest import SMALL_DISK, make_bullet, small_testbed


def make_unix(env):
    bullet = make_bullet(env)
    disk = VirtualDisk(env, SMALL_DISK, name="dirdisk")
    dirs = DirectoryServer(env, disk, LocalBulletStub(bullet), small_testbed())
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    root = run_process(env, dirs.create_directory())
    unix = UnixEmulation(env, LocalBulletStub(bullet), dirs, root)
    return unix, bullet, dirs


def run(env, gen):
    return run_process(env, gen)


def test_create_write_close_read(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        fd = yield from unix.open("/hello.txt", "w")
        yield from unix.write(fd, b"hello unix emulation")
        yield from unix.close(fd)
        fd = yield from unix.open("/hello.txt", "r")
        data = yield from unix.read(fd, 100)
        yield from unix.close(fd)
        return data

    assert run(env, scenario()) == b"hello unix emulation"


def test_open_missing_file(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        try:
            yield from unix.open("/ghost", "r")
        except NotFoundError:
            return "missing"

    assert run(env, scenario()) == "missing"


def test_bad_mode_rejected(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        try:
            yield from unix.open("/x", "rw")
        except BadRequestError:
            return "bad mode"

    assert run(env, scenario()) == "bad mode"


def test_lseek_and_partial_io(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        fd = yield from unix.open("/f", "w")
        yield from unix.write(fd, b"0123456789")
        yield from unix.lseek(fd, 3, os.SEEK_SET)
        yield from unix.write(fd, b"XYZ")
        yield from unix.close(fd)
        fd = yield from unix.open("/f", "r")
        yield from unix.lseek(fd, 2, os.SEEK_SET)
        data = yield from unix.read(fd, 5)
        return data

    assert run(env, scenario()) == b"2XYZ6"


def test_lseek_whence_variants(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        fd = yield from unix.open("/f", "w")
        yield from unix.write(fd, b"abcdef")
        end = yield from unix.lseek(fd, -2, os.SEEK_END)
        cur = yield from unix.lseek(fd, 1, os.SEEK_CUR)
        return end, cur

    assert run(env, scenario()) == (4, 5)


def test_append_mode(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        fd = yield from unix.open("/log", "w")
        yield from unix.write(fd, b"first\n")
        yield from unix.close(fd)
        fd = yield from unix.open("/log", "a")
        yield from unix.write(fd, b"second\n")
        yield from unix.close(fd)
        fd = yield from unix.open("/log", "r")
        return (yield from unix.read(fd, 100))

    assert run(env, scenario()) == b"first\nsecond\n"


def test_each_close_creates_new_immutable_version(env):
    unix, bullet, dirs = make_unix(env)

    def scenario():
        fd = yield from unix.open("/doc", "w")
        yield from unix.write(fd, b"v1")
        cap1 = yield from unix.close(fd)
        fd = yield from unix.open("/doc", "r+")
        yield from unix.lseek(fd, 0, os.SEEK_SET)
        yield from unix.write(fd, b"v2")
        cap2 = yield from unix.close(fd)
        return cap1, cap2

    cap1, cap2 = run(env, scenario())
    assert cap1.object != cap2.object
    # The superseded version is deleted from the Bullet server.
    with pytest.raises(NotFoundError):
        run(env, bullet.read(cap1))
    assert run(env, bullet.read(cap2)) == b"v2"


def test_concurrent_reader_keeps_old_version(env):
    """A process holding the file open across another's commit keeps
    reading the immutable version it opened."""
    unix, _b, _d = make_unix(env)

    def scenario():
        fd = yield from unix.open("/shared", "w")
        yield from unix.write(fd, b"original contents")
        yield from unix.close(fd)
        reader_fd = yield from unix.open("/shared", "r")
        first = yield from unix.read(reader_fd, 8)  # loads whole file
        writer_fd = yield from unix.open("/shared", "w")
        yield from unix.write(writer_fd, b"replaced!")
        yield from unix.close(writer_fd)
        rest = yield from unix.read(reader_fd, 100)
        return first + rest

    assert run(env, scenario()) == b"original contents"


def test_close_clean_file_creates_nothing(env):
    unix, bullet, _d = make_unix(env)

    def scenario():
        fd = yield from unix.open("/f", "w")
        yield from unix.write(fd, b"x")
        yield from unix.close(fd)
        creates_before = bullet.stats.creates.value
        fd = yield from unix.open("/f", "r")
        yield from unix.read(fd, 10)
        yield from unix.close(fd)
        return bullet.stats.creates.value - creates_before

    assert run(env, scenario()) == 0


def test_mkdir_and_nested_paths(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        yield from unix.mkdir("/home")
        yield from unix.mkdir("/home/user")
        fd = yield from unix.open("/home/user/notes", "w")
        yield from unix.write(fd, b"nested file")
        yield from unix.close(fd)
        names = yield from unix.listdir("/home")
        st = yield from unix.stat("/home/user/notes")
        return names, st

    names, st = run(env, scenario())
    assert names == ["user"]
    assert st == {"size": 11, "is_directory": False}


def test_unlink_deletes_file(env):
    unix, bullet, _d = make_unix(env)

    def scenario():
        fd = yield from unix.open("/f", "w")
        yield from unix.write(fd, b"doomed")
        cap = yield from unix.close(fd)
        yield from unix.unlink("/f")
        return cap

    cap = run(env, scenario())
    with pytest.raises(NotFoundError):
        run(env, bullet.read(cap))

    def reopen():
        try:
            yield from unix.open("/f", "r")
        except NotFoundError:
            return "gone"

    assert run(env, reopen()) == "gone"


def test_rename(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        yield from unix.mkdir("/a")
        yield from unix.mkdir("/b")
        fd = yield from unix.open("/a/file", "w")
        yield from unix.write(fd, b"moving")
        yield from unix.close(fd)
        yield from unix.rename("/a/file", "/b/renamed")
        fd = yield from unix.open("/b/renamed", "r")
        data = yield from unix.read(fd, 10)
        listing = yield from unix.listdir("/a")
        return data, listing

    data, listing = run(env, scenario())
    assert data == b"moving"
    assert listing == []


def test_ftruncate(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        fd = yield from unix.open("/t", "w")
        yield from unix.write(fd, b"abcdefgh")
        yield from unix.ftruncate(fd, 3)
        yield from unix.close(fd)
        fd = yield from unix.open("/t", "r")
        return (yield from unix.read(fd, 10))

    assert run(env, scenario()) == b"abc"


def test_write_on_readonly_fd_rejected(env):
    unix, _b, _d = make_unix(env)

    def scenario():
        fd = yield from unix.open("/f", "w")
        yield from unix.write(fd, b"x")
        yield from unix.close(fd)
        fd = yield from unix.open("/f", "r")
        try:
            yield from unix.write(fd, b"y")
        except BadRequestError:
            return "read-only"

    assert run(env, scenario()) == "read-only"
