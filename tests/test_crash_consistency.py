"""Crash-consistency of the create path.

The per-replica write order is data extent **then** inode block, so a
crash between the two can never leave an inode pointing at garbage —
the worst case is a durable-but-unreferenced file whose creating client
never received the capability. That half-created file is precisely an
orphan, and the GC (object aging) reclaims it.
"""

import pytest

from repro.client import LocalBulletStub
from repro.core import BulletServer
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import DiskIOError, NotFoundError, ReproError
from repro.faults import arm_fail_after_writes
from repro.gc import gc_sweep
from repro.sim import Environment, run_process
from repro.units import KB

from conftest import SMALL_DISK, make_bullet, small_testbed


def test_crash_between_data_and_inode_write_leaves_no_file(env):
    """Kill both disks after the data write but before the inode write:
    on reboot the file must not exist and no blocks may be leaked."""
    bullet = make_bullet(env)
    free_before = bullet.incarnation.disk_free.free_units
    for disk in bullet.mirror.disks:
        # The data extent of a 16 KB file is one write; fail before the
        # second (inode) write completes.
        arm_fail_after_writes(disk, writes=1)

    with pytest.raises(ReproError):
        run_process(env, bullet.create(bytes(16 * KB), p_factor=2))

    for disk in bullet.mirror.disks:
        disk.repair()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    report = env.run(until=env.process(reborn.boot()))
    # No inode reached the disk => no file, and the scan-derived free
    # list gives all blocks back (nothing leaked).
    assert report.live_files == 0
    assert reborn.incarnation.disk_free.free_units == free_before


def test_partial_replica_failure_creates_reclaimable_orphan(env):
    """One replica dies mid-create with P-FACTOR=2: the client gets an
    error (paranoia not satisfied), but the surviving replica may hold a
    durable, unreferenced file. The GC sweep reclaims it."""
    testbed = small_testbed(max_lives=2)
    bullet = make_bullet(env, testbed=testbed)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), testbed)
    dirs.format()
    env.run(until=env.process(dirs.boot()))

    # The second replica dies after its data write, before its inode
    # write — mid-create, after P-FACTOR validation passed.
    arm_fail_after_writes(bullet.mirror.disks[1], writes=1)
    with pytest.raises(ReproError):
        run_process(env, bullet.create(bytes(16 * KB), p_factor=2))
    env.run(until=env.now + 1.0)  # drain

    # The file exists server-side (inode allocated) but nobody holds a
    # capability and no directory references it: an orphan.
    live = list(bullet.incarnation.table.live_inodes())
    assert len(live) == 1
    orphan_number = live[0][0]

    reclaimed = []
    for _ in range(testbed.bullet.max_lives):
        report = run_process(env, gc_sweep(bullet, [dirs]))
        reclaimed.extend(report.reclaimed)
    assert orphan_number in reclaimed
    assert bullet.incarnation.table.live_count == 0
    bullet.incarnation.disk_free.check_invariants()


def test_delete_write_through_survives_crash(env):
    """A completed DELETE is durable: after reboot the file stays gone
    and its space stays free."""
    bullet = make_bullet(env)
    cap = run_process(env, bullet.create(b"doomed", p_factor=2))
    run_process(env, bullet.delete(cap))
    bullet.crash()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    report = env.run(until=env.process(reborn.boot()))
    assert report.live_files == 0
    with pytest.raises(NotFoundError):
        run_process(env, reborn.read(cap))


def test_surviving_replica_serves_after_total_primary_loss_mid_churn(env):
    """Interleaved creates/deletes while the primary dies partway: the
    survivor's state passes the startup consistency scan."""
    bullet = make_bullet(env)
    caps = []
    arm_fail_after_writes(bullet.mirror.disks[0], writes=12)
    for i in range(10):
        try:
            cap = run_process(env, bullet.create(bytes([i]) * 4096, p_factor=1))
            caps.append((i, cap))
        except (DiskIOError, ReproError):
            continue
    env.run(until=env.now + 1.0)
    # Reboot purely from the surviving replica.
    bullet.crash()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    env.run(until=env.process(reborn.boot()))  # scan must not raise
    for i, cap in caps:
        try:
            data = run_process(env, reborn.read(cap))
        except NotFoundError:
            continue  # created on the dead primary only — acceptable
        assert data == bytes([i]) * 4096
