"""One reboot model: a crash ends the incarnation, and ``boot()`` builds
everything the crash loses (DESIGN.md §5c).

* A fresh server on the same disks mints no secret of its
  predecessor's, so a deleted object's capability is refused once the
  object number is reused (Bullet, directory, log).
* Rebooting in place and booting a fresh instance on the same disks
  reach the same state: tables, free lists, empty caches, no held
  locks, the same next secret (all four servers).
* The NFS churn daemon belongs to its incarnation: none runs while the
  server is down, exactly one after any number of reboots.
* A directory or log call that outlives its incarnation writes nothing,
  and a failed allocation goes back to the free list it came from.
"""

import gc
import inspect

import pytest

from repro.client import LocalBulletStub
from repro.core import BulletServer
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import CapabilityError, ReproError, ServerDownError
from repro.logsvc import LogServer
from repro.nfs import NfsServer
from repro.nfs.buffercache import _Churn
from repro.sim import Environment, run_process

from conftest import SMALL_DISK, make_bullet, reference_env, small_testbed


def _world(kind, env=None):
    """An environment (a fresh fast kernel unless given), a booted
    ``kind`` server, and a constructor of fresh instances on the same
    disks."""
    env = Environment() if env is None else env
    if kind == "bullet":
        server = make_bullet(env)
        return env, server, lambda: BulletServer(env, server.mirror,
                                                 server.testbed)
    disk = VirtualDisk(env, SMALL_DISK, name=f"{kind}-disk")
    if kind == "directory":
        stub = LocalBulletStub(make_bullet(env))
        build = lambda: DirectoryServer(env, disk, stub, small_testbed())
    elif kind == "log":
        build = lambda: LogServer(env, disk, small_testbed())
    else:
        build = lambda: NfsServer(env, disk, small_testbed(),
                                  background_churn=True)
    server = build()
    server.format()
    run_process(env, server.boot())
    return env, server, build


# ------------------------------------------------ no secret is minted twice

def _create(kind, server):
    if kind == "bullet":
        return server.create(b"deleted file's bytes", 2)
    if kind == "directory":
        return server.create_directory()
    return server.create_log()


def _delete(kind, env, server, cap):
    if kind == "bullet":
        run_process(env, server.delete(cap))
    elif kind == "directory":
        run_process(env, server.delete_directory(cap))
    else:
        server.format()  # mkfs: the log service's one way to drop a log


def _use(kind, server, cap):
    if kind == "bullet":
        return server.read(cap)
    if kind == "directory":
        return server.list_names(cap)
    return server.read(cap)


@pytest.mark.parametrize("kind", ["bullet", "directory", "log"])
def test_a_fresh_incarnation_refuses_a_deleted_objects_capability(kind):
    env, server, build = _world(kind)
    old = run_process(env, _create(kind, server))
    _delete(kind, env, server, old)
    server.crash()
    reborn = build()
    run_process(env, reborn.boot())
    new = run_process(env, _create(kind, reborn))
    assert new.object == old.object
    with pytest.raises(CapabilityError):
        run_process(env, _use(kind, reborn, old))


# ------------------------------------- in place and fresh are one reboot

def _history(kind, server):
    """Process: work that leaves every kind of volatile state behind."""
    if kind == "bullet":
        kept = yield from server.create(b"k" * 5000, 2)
        yield from server.read(kept)
        gone = yield from server.create(b"g" * 3000, 2)
        yield from server.delete(gone)
        # P-FACTOR 0: its replica writes are still running at the crash.
        yield from server.create(b"p" * 70_000, 0)
    elif kind == "directory":
        root = yield from server.create_directory()
        sub = yield from server.create_directory()
        yield from server.append(root, "sub", sub)
        gone = yield from server.create_directory()
        yield from server.delete_directory(gone)
    elif kind == "log":
        log = yield from server.create_log()
        for i in range(40):
            yield from server.append(log, bytes([i]) * 30)
        yield from server.create_log()
    else:
        root = server.root_handle
        fh = yield from server.create(root, "f")
        for block in range(3):
            yield from server.write(fh, block * 8192, b"w" * 8192)
        yield from server.read(fh, 0, 8192)


def _state(kind, server):
    """Everything a boot builds, as comparable values."""
    if kind == "bullet":
        return ([(n, i.secret, i.start_block, i.size, server.lives_of(n))
                 for n, i in server.incarnation.table.live_inodes()],
                server.incarnation.disk_free.holes(), server.incarnation.cache.cached_files,
                server.incarnation.cache.used_bytes, len(server.incarnation.verified_caps),
                server.incarnation.locks.held_keys())
    if kind == "directory":
        return (server.incarnation.slots, server.incarnation.free_slots, server.incarnation.rows_cache,
                server.incarnation.locks.held_keys())
    if kind == "log":
        return server.incarnation.logs, server.incarnation.free_blocks, server.incarnation.locks.held_keys()
    return (bytes(server.incarnation.fs._bitmap), server.incarnation.fs.free_bytes,
            dict(server.incarnation.cache._blocks), server.incarnation.cache._dirty)


def _next_object(kind, server):
    if kind == "nfs":
        return server.create(server.root_handle, "next")
    return _create(kind, server)


@pytest.mark.parametrize("kind", ["bullet", "directory", "log", "nfs"])
def test_rebooting_in_place_equals_booting_a_fresh_instance(kind):
    outcomes = []
    for fresh in (False, True):
        env, server, build = _world(kind)
        run_process(env, _history(kind, server))
        server.crash()
        if fresh:
            server = build()
        run_process(env, server.boot())
        state = _state(kind, server)
        outcomes.append((env.now, state,
                         run_process(env, _next_object(kind, server))))
    assert outcomes[0] == outcomes[1]


# ------------------------------------------------- the NFS churn daemon

def _churn_daemons(env):
    """The live churn daemons in ``env``: the reference kernel's daemon
    processes, the fast kernel's registered virtual sources."""
    if env.is_reference:
        return sum(1 for obj in gc.get_objects()
                   if inspect.isgenerator(obj) and obj.gi_frame is not None
                   and obj.gi_code is _Churn._process.__code__
                   and obj.gi_frame.f_locals["self"]._cache.env is env)
    return sum(isinstance(source, _Churn) for source in env._sources)


def test_the_nfs_churn_daemon_belongs_to_its_incarnation():
    for kernel in (Environment(), reference_env()):
        env, server, _build = _world("nfs", kernel)
        assert _churn_daemons(env) == 1
        for _ in range(2):
            server.crash()
            env.run(until=env.now + 1.0)
            assert _churn_daemons(env) == 0
            run_process(env, server.boot())
            assert _churn_daemons(env) == 1


# ------------------------------ a call that outlives its incarnation

def test_a_directory_create_crashed_in_its_bullet_create_writes_nothing():
    """Crashed and rebooted while its Bullet CREATE runs (it takes
    17 ms), the create refuses instead of writing its slot record into
    the next incarnation, which keeps every slot free."""
    env, dirs, _build = _world("directory")

    def doomed():
        with pytest.raises(ServerDownError):
            yield from dirs.create_directory()

    done = env.process(doomed())
    env.run(until=env.now + 0.005)
    dirs.crash()
    run_process(env, dirs.boot())
    writes = dirs.disk.stats.writes.value
    env.run(until=done)
    assert dirs.disk.stats.writes.value == writes
    assert dirs.status()["directories"] == 0
    assert dirs.status()["free_slots"] == 512
    root = run_process(env, dirs.create_directory())
    assert run_process(env, dirs.list_names(root)) == []


def test_a_log_append_crashed_in_its_capability_check_writes_nothing():
    env, logs, _build = _world("log")
    log = run_process(env, logs.create_log())

    def doomed():
        with pytest.raises(ServerDownError):
            yield from logs.append(log, b"late")

    done = env.process(doomed())
    env.run(until=env.now + logs.testbed.cpu.capability_check / 2)
    logs.crash()
    writes = logs.disk.stats.writes.value
    env.run(until=done)
    assert logs.disk.stats.writes.value == writes


def test_a_directory_create_refused_by_bullet_keeps_its_slot():
    env, dirs, _build = _world("directory")
    dirs.bullet.server.crash()
    with pytest.raises(ReproError):
        run_process(env, dirs.create_directory())
    assert dirs.status()["free_slots"] == 512


def test_a_log_create_whose_write_fails_keeps_its_first_block():
    env, logs, _build = _world("log")
    free = logs.status()["free_blocks"]
    first = logs.incarnation.free_blocks[-1]
    logs.disk.mark_flaky(first, 1)
    with pytest.raises(ReproError):
        run_process(env, logs.create_log())
    assert logs.status() == {"name": "logsvc", "logs": 0, "records": 0,
                             "free_blocks": free}
    logs.disk.clear_flaky(first, 1)
    run_process(env, logs.create_log())


@pytest.mark.parametrize("failing", ["new block", "old tail"])
def test_a_log_append_whose_new_block_fails_keeps_the_block(failing):
    """The first block is full, so the append takes a new one: when the
    write that initialises it or the write that links it fails, the
    block goes back to the free list and the log is as before."""
    env, logs, _build = _world("log")
    log = run_process(env, logs.create_log())
    full = b"x" * logs.max_record
    run_process(env, logs.append(log, full))
    status = logs.status()
    block = (logs.incarnation.free_blocks[-1] if failing == "new block"
             else logs.incarnation.logs[log.object - 1].tail_block)
    logs.disk.mark_flaky(block, 1)
    with pytest.raises(ReproError):
        run_process(env, logs.append(log, b"refused"))
    assert logs.status() == status
    logs.disk.clear_flaky(block, 1)
    assert run_process(env, logs.append(log, b"next")) == 1
    assert run_process(env, logs.read(log)) == [full, b"next"]
    assert logs.status()["free_blocks"] == status["free_blocks"] - 1
