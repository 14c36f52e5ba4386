"""Tests for object aging (std_touch / std_age) and the GC sweep."""

import pytest
from dataclasses import replace

from repro.client import LocalBulletStub
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import NotFoundError
from repro.gc import gc_sweep
from repro.sim import run_process
from repro.units import KB

from conftest import SMALL_DISK, make_bullet, small_testbed


def make_world(env, max_lives=3):
    testbed = small_testbed(max_lives=max_lives)
    bullet = make_bullet(env, testbed=testbed)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), testbed)
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    return bullet, dirs


def test_lives_start_at_max(env):
    bullet, _dirs = make_world(env, max_lives=5)
    cap = run_process(env, bullet.create(b"x", 1))
    assert bullet.lives_of(cap.object) == 5


def test_age_decrements_and_touch_resets(env):
    bullet, _dirs = make_world(env, max_lives=5)
    cap = run_process(env, bullet.create(b"x", 1))
    run_process(env, bullet.age_all())
    run_process(env, bullet.age_all())
    assert bullet.lives_of(cap.object) == 3
    run_process(env, bullet.touch(cap))
    assert bullet.lives_of(cap.object) == 5


def test_orphan_reclaimed_after_max_lives_sweeps(env):
    bullet, dirs = make_world(env, max_lives=3)
    orphan = run_process(env, bullet.create(b"nobody references me", 1))
    for sweep in range(3):
        report = run_process(env, gc_sweep(bullet, [dirs]))
    assert orphan.object in report.reclaimed
    with pytest.raises(NotFoundError):
        run_process(env, bullet.read(orphan))


def test_bound_file_survives_indefinitely(env):
    bullet, dirs = make_world(env, max_lives=3)
    root = run_process(env, dirs.create_directory())
    cap = run_process(env, bullet.create(b"reachable", 1))
    run_process(env, dirs.append(root, "keep", cap))
    for _ in range(10):
        report = run_process(env, gc_sweep(bullet, [dirs]))
        assert cap.object not in report.reclaimed
    assert run_process(env, bullet.read(cap)) == b"reachable"


def test_directory_version_files_survive_with_history(env):
    bullet, dirs = make_world(env, max_lives=2)
    root = run_process(env, dirs.create_directory())
    cap = run_process(env, bullet.create(b"f", 1))
    run_process(env, dirs.append(root, "a", cap))
    run_process(env, dirs.append(root, "b", cap))
    chain = run_process(env, dirs.history(root))
    for _ in range(5):
        run_process(env, gc_sweep(bullet, [dirs], include_history=True))
    # Every version file in the chain is still readable.
    for version_cap in chain:
        run_process(env, bullet.read(version_cap))


def test_sweep_over_a_pruned_directory_touches_the_kept_versions(env):
    """A default sweep (include_history=True) walks each directory's
    version chain; after a prune the chain ends at a deleted file, and
    the walk must stop there instead of failing the whole sweep."""
    bullet, dirs = make_world(env, max_lives=2)
    root = run_process(env, dirs.create_directory())
    cap = run_process(env, bullet.create(b"f", 1))
    for name in "abc":
        run_process(env, dirs.append(root, name, cap))
    assert run_process(env, dirs.prune_history(root, keep=2)) == 2
    kept = run_process(env, dirs.history(root))
    assert len(kept) == 2
    for _ in range(5):
        report = run_process(env, gc_sweep(bullet, [dirs]))
        assert report.touched == 2 + 3  # kept versions + the bound rows
        assert report.reclaimed == []
    for version_cap in kept:
        run_process(env, bullet.read(version_cap))
    assert run_process(env, bullet.read(cap)) == b"f"


def test_old_versions_collected_without_history_retention(env):
    """With include_history=False, superseded directory versions are
    unreachable and age out — automatic version pruning."""
    bullet, dirs = make_world(env, max_lives=2)
    root = run_process(env, dirs.create_directory())
    cap = run_process(env, bullet.create(b"f", 1))
    run_process(env, dirs.append(root, "a", cap))
    run_process(env, dirs.append(root, "b", cap))
    chain = run_process(env, dirs.history(root))
    assert len(chain) == 3
    for _ in range(2):
        report = run_process(env, gc_sweep(bullet, [dirs],
                                           include_history=False))
    assert len(report.reclaimed) == 2  # the two superseded versions
    # The current version and the bound file still live.
    assert run_process(env, dirs.list_names(root)) == ["a", "b"]
    assert run_process(env, bullet.read(cap)) == b"f"


def test_unbound_then_bound_file_is_saved(env):
    """A client has max_lives sweeps of grace to bind its new file."""
    bullet, dirs = make_world(env, max_lives=3)
    root = run_process(env, dirs.create_directory())
    cap = run_process(env, bullet.create(b"late binding", 1))
    run_process(env, gc_sweep(bullet, [dirs]))
    run_process(env, gc_sweep(bullet, [dirs]))
    assert bullet.lives_of(cap.object) == 1
    run_process(env, dirs.append(root, "saved", cap))  # bound just in time
    run_process(env, gc_sweep(bullet, [dirs]))
    assert run_process(env, bullet.read(cap)) == b"late binding"
    assert bullet.lives_of(cap.object) == bullet.testbed.bullet.max_lives - 1


def test_reboot_resets_aging_clock(env):
    """Lives are volatile: a reboot grants every survivor a fresh clock
    (orphans then take max_lives sweeps again — safe, merely lazy)."""
    from repro.core import BulletServer

    bullet, dirs = make_world(env, max_lives=4)
    cap = run_process(env, bullet.create(b"x", 1))
    run_process(env, bullet.age_all())
    assert bullet.lives_of(cap.object) == 3
    bullet.crash()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    env.run(until=env.process(reborn.boot()))
    assert reborn.lives_of(cap.object) == 4
