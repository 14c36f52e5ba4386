"""The directory server on mirrored disks: same availability story as
the Bullet server for the naming layer."""

import pytest

from repro.client import LocalBulletStub
from repro.directory import DirectoryServer
from repro.disk import MirroredDiskSet, VirtualDisk
from repro.sim import run_process

from conftest import SMALL_DISK, make_bullet, small_testbed


@pytest.fixture
def mirrored_dirs(env):
    bullet = make_bullet(env)
    disks = [VirtualDisk(env, SMALL_DISK, name=f"dir-d{i}") for i in (0, 1)]
    mirror = MirroredDiskSet(env, disks)
    dirs = DirectoryServer(env, mirror, LocalBulletStub(bullet),
                           small_testbed())
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    return dirs, bullet, disks


def test_slot_records_on_both_disks(env, mirrored_dirs):
    dirs, bullet, disks = mirrored_dirs
    root = run_process(env, dirs.create_directory())
    cap = run_process(env, bullet.create(b"x", 1))
    run_process(env, dirs.append(root, "f", cap))
    slot_block = 1 + (root.object - 1)
    a = disks[0].read_raw(slot_block, 1)
    b = disks[1].read_raw(slot_block, 1)
    assert a == b
    assert a[:4] != bytes(4)  # record present


def test_directory_survives_primary_disk_failure(env, mirrored_dirs):
    dirs, bullet, disks = mirrored_dirs
    root = run_process(env, dirs.create_directory())
    cap = run_process(env, bullet.create(b"durable", 1))
    run_process(env, dirs.append(root, "f", cap))
    disks[0].fail("dir primary dead")
    # Mutations and lookups keep working on the surviving replica.
    cap2 = run_process(env, bullet.create(b"more", 1))
    run_process(env, dirs.append(root, "g", cap2))
    assert run_process(env, dirs.lookup(root, "f")) == cap
    # Reboot purely from the survivor.
    dirs.crash()
    reborn = DirectoryServer(env, dirs.disk, LocalBulletStub(bullet),
                             small_testbed(), name="directory")
    env.run(until=env.process(reborn.boot()))
    assert run_process(env, reborn.list_names(root)) == ["f", "g"]


def test_single_disk_still_supported(env):
    """The plain-VirtualDisk form keeps working unchanged."""
    bullet = make_bullet(env)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed())
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    root = run_process(env, dirs.create_directory())
    assert run_process(env, dirs.list_names(root)) == []
