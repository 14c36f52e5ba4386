"""Crash-prefix consistency of the directory server.

Every mutation is: (1) create the new version file on the Bullet server
(durable), (2) overwrite one slot block on the directory disk. The slot
write is the commit point, so if the directory disk dies after K slot
writes, a reboot must show exactly the first K mutations — never a torn
or reordered state. Hypothesis sweeps the crash point."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client import LocalBulletStub
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import DiskIOError, ReproError
from repro.faults import arm_fail_after_writes
from repro.sim import Environment, run_process

from conftest import SMALL_DISK, make_bullet, small_testbed


@given(
    n_mutations=st.integers(min_value=1, max_value=10),
    crash_after=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_directory_crash_shows_exact_mutation_prefix(n_mutations, crash_after):
    env = Environment()
    bullet = make_bullet(env, testbed=small_testbed(inode_count=2048))
    dir_disk = VirtualDisk(env, SMALL_DISK, name="dd")
    dirs = DirectoryServer(env, dir_disk, LocalBulletStub(bullet),
                           small_testbed())
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    root = run_process(env, dirs.create_directory())  # 1 slot write
    caps = [run_process(env, bullet.create(f"f{i}".encode(), 1))
            for i in range(n_mutations)]

    # Each append costs exactly one directory-disk write; the create of
    # the root cost one too, already done. Crash after `crash_after`
    # further writes.
    arm_fail_after_writes(dir_disk, writes=crash_after)
    applied = 0
    for i, cap in enumerate(caps):
        try:
            run_process(env, dirs.append(root, f"n{i:02d}", cap))
            applied += 1
        except (DiskIOError, ReproError):
            break

    # Let the fault watcher fire (it polls) before repairing, so the
    # repair cannot race it; then boot a fresh server from the disk.
    env.run(until=env.now + 0.1)
    dir_disk.repair()
    reborn = DirectoryServer(env, dir_disk, LocalBulletStub(bullet),
                             small_testbed(), name="directory")
    env.run(until=env.process(reborn.boot()))
    listing = run_process(env, reborn.list_names(root))

    # The recovered state is exactly a prefix of the mutation sequence:
    # all successfully-committed appends, in order, nothing else.
    assert listing == [f"n{i:02d}" for i in range(len(listing))]
    # And it contains at least the mutations whose commit returned
    # success to the client (durability of acknowledged writes).
    assert len(listing) >= applied
    for i in range(len(listing)):
        assert run_process(env, reborn.lookup(root, f"n{i:02d}")) == caps[i]


def test_status_surfaces(env):
    """std_status on every server kind."""
    from repro.directory.server import MAX_DIRECTORIES
    from repro.logsvc import LogServer

    bullet = make_bullet(env)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed())
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    run_process(env, dirs.create_directory())
    assert dirs.status()["directories"] == 1
    assert dirs.status()["free_slots"] == MAX_DIRECTORIES - 1

    logs = LogServer(env, VirtualDisk(env, SMALL_DISK, name="ld"),
                     small_testbed())
    logs.format()
    env.run(until=env.process(logs.boot()))
    cap = run_process(env, logs.create_log())
    run_process(env, logs.append(cap, b"r"))
    status = logs.status()
    assert status["logs"] == 1
    assert status["records"] == 1
