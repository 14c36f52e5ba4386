"""Tests for the disk compaction job (§3's "3 a.m." pass)."""

import pytest

from repro.core import compact_disk
from repro.errors import NoSpaceError
from repro.sim import run_process
from repro.units import KB

from conftest import make_bullet


def churn(env, bullet, n=12, size=32 * KB):
    """Create n files then delete every other one, fragmenting the disk."""
    caps = [run_process(env, bullet.create(bytes([i]) * size, p_factor=1))
            for i in range(n)]
    survivors = []
    for i, cap in enumerate(caps):
        if i % 2 == 0:
            run_process(env, bullet.delete(cap))
        else:
            survivors.append((i, cap, bytes([i]) * size))
    return survivors


def compact(env, bullet):
    """One full pass; whatever it moved or skipped, no file's lock may
    still be held afterwards."""
    report = run_process(env, compact_disk(bullet))
    assert bullet.locks.held_keys() == []
    return report


def test_compaction_coalesces_free_space(env):
    bullet = make_bullet(env)
    survivors = churn(env, bullet)
    assert bullet.disk_free.hole_count > 1
    report = compact(env, bullet)
    assert bullet.disk_free.hole_count == 1
    assert report.files_moved > 0
    assert report.fragmentation_after <= report.fragmentation_before
    assert report.largest_hole_after >= report.largest_hole_before
    assert report.duration > 0  # moving data costs simulated time


def test_compaction_preserves_file_contents(env):
    bullet = make_bullet(env)
    survivors = churn(env, bullet)
    compact(env, bullet)
    for _i, cap, expected in survivors:
        bullet.evict(cap.object)  # force disk reads at the new location
        assert run_process(env, bullet.read(cap)) == expected


def test_compaction_bounces_a_short_slide_through_staging(env):
    """A file that must slide left by less than its own length cannot be
    copied in one hop (source and destination overlap): it goes through
    a staging extent, and both hops must really run."""
    bullet = make_bullet(env)
    free_before = bullet.disk_free.free_units
    small = run_process(env, bullet.create(b"s" * 8 * KB, p_factor=1))
    expected = b"B" * 64 * KB
    big = run_process(env, bullet.create(expected, p_factor=1))
    run_process(env, bullet.delete(small))
    report = compact(env, bullet)
    assert report.files_moved == 1
    assert bullet.disk_free.hole_count == 1
    # Neither the old extent nor the staging extent leaked.
    blocks = bullet.layout.blocks_for(len(expected))
    assert bullet.disk_free.free_units == free_before - blocks
    bullet.evict(big.object)
    assert run_process(env, bullet.read(big)) == expected


def test_compaction_updates_both_replicas(env):
    bullet = make_bullet(env)
    survivors = churn(env, bullet, n=6)
    compact(env, bullet)
    _i, cap, expected = survivors[0]
    inode = bullet.table.get(cap.object)
    blocks = bullet.layout.blocks_for(inode.size)
    for disk in bullet.mirror.disks:
        raw = disk.read_raw(inode.start_block, blocks)
        assert raw[: len(expected)] == expected


def test_compaction_enables_large_allocation(env):
    """The paper's motivation: fragmentation can block a large create
    even with enough total free space; compaction fixes it."""
    from dataclasses import replace

    from conftest import SMALL_DISK, small_testbed
    from repro.units import MB

    # An 8 MB disk the workload can actually fill.
    tiny_disk = replace(SMALL_DISK, capacity_bytes=8 * MB, cylinders=32)
    bullet = make_bullet(env, testbed=small_testbed(disk=tiny_disk))
    block = bullet.layout.block_size
    # Fill the whole data area with 8 equal files, delete every other one.
    chunk_blocks = bullet.disk_free.free_units // 8
    caps = [run_process(env, bullet.create(bytes(chunk_blocks * block), p_factor=0))
            for i in range(8)]
    env.run()
    for cap in caps[::2]:
        run_process(env, bullet.delete(cap))
    big = bullet.disk_free.free_units * block  # total free, but split
    request = min(big, bullet.cache.capacity)
    assert bullet.disk_free.largest_hole * block < request
    with pytest.raises(NoSpaceError, match="fragmented"):
        run_process(env, bullet.create(bytes(request), p_factor=0))
    compact(env, bullet)
    cap = run_process(env, bullet.create(bytes(request), p_factor=0))
    env.run()
    assert run_process(env, bullet.size(cap)) == request


def test_compaction_on_clean_volume_moves_nothing(env):
    bullet = make_bullet(env)
    caps = [run_process(env, bullet.create(bytes([i]) * 16 * KB, p_factor=1))
            for i in (1, 2)]
    report = compact(env, bullet)
    assert report.files_moved == 0
    assert report.blocks_moved == 0
    # Files the pass left in place are still readable (and writable:
    # a lock leaked by a skip would wedge the delete).
    for i, cap in zip((1, 2), caps):
        assert run_process(env, bullet.read(cap)) == bytes([i]) * 16 * KB
        run_process(env, bullet.delete(cap))


def test_compaction_survives_reboot_scan(env):
    """The relocated inode table must pass the startup consistency scan."""
    from repro.core import BulletServer

    bullet = make_bullet(env)
    survivors = churn(env, bullet, n=8)
    compact(env, bullet)
    bullet.crash()
    rebooted = BulletServer(env, bullet.mirror, bullet.testbed, name="reboot")
    report = env.run(until=env.process(rebooted.boot()))
    assert report.live_files == len(survivors)
    assert rebooted.disk_free.hole_count == 1
