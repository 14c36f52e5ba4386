"""Shared fixtures: a small, fast testbed for unit/integration tests.

The benchmark harness uses the full paper-scale testbed; tests use a
scaled-down one (32 MB disks, 2 MB cache) so volume formatting and
scans stay fast while exercising identical code paths.
"""

import os

import pytest

from repro.disk import MirroredDiskSet, VirtualDisk
from repro.profiles import BulletProfile, DiskProfile, Testbed
from repro.core import BulletServer
from repro.sim import Environment
from repro.units import MB


SMALL_DISK = DiskProfile(
    name="small-test-disk",
    capacity_bytes=32 * MB,
    cylinders=128,
    heads=4,
    sectors_per_track=32,
)

SMALL_BULLET = BulletProfile(
    ram_bytes=3 * MB,
    reserved_ram_bytes=1 * MB,
    inode_count=256,
    rnode_count=128,
    default_p_factor=2,
)


def small_testbed(disk: DiskProfile = None, **bullet_overrides) -> Testbed:
    """A Testbed scaled for fast tests."""
    bullet = SMALL_BULLET
    if bullet_overrides:
        from dataclasses import replace
        bullet = replace(bullet, **bullet_overrides)
    return Testbed(disk=disk or SMALL_DISK, bullet=bullet)


def pytest_addoption(parser):
    parser.addoption(
        "--explore", action="store_true", default=False,
        help="run tests marked 'explore' (budgeted deep model-checking "
             "scopes, minutes not seconds); REPRO_EXPLORE=1 does the same")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--explore") or os.environ.get("REPRO_EXPLORE") == "1":
        return
    skip = pytest.mark.skip(
        reason="deep exploration scope: pass --explore (or REPRO_EXPLORE=1)")
    for item in items:
        if "explore" in item.keywords:
            item.add_marker(skip)


#: CI's test-workers-4 job sets REPRO_TEST_WORKERS=4 to re-run the whole
#: tier-1 suite against a worker pool; tests that specifically assert
#: single-threaded semantics pass workers=1 explicitly.
DEFAULT_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "1"))


def make_bullet(env: Environment, n_disks: int = 2, testbed: Testbed = None,
                transport=None, **server_kwargs) -> BulletServer:
    """A formatted, booted Bullet server on fresh small disks."""
    testbed = testbed or small_testbed()
    server_kwargs.setdefault("workers", DEFAULT_WORKERS)
    disks = [
        VirtualDisk(env, testbed.disk, name=f"bd{i}") for i in range(n_disks)
    ]
    mirror = MirroredDiskSet(env, disks)
    server = BulletServer(env, mirror, testbed, transport=transport,
                          **server_kwargs)
    server.format()
    env.run(until=env.process(server.boot()))
    return server


@pytest.fixture(autouse=True)
def _runtime_lockset():
    """Run every test under the Eraser-style lockset checker when
    ``REPRO_LOCKSET=1`` (CI's workers=4 job exports it). A lockset
    violation raises RaceReport inside the offending process, so a racy
    access fails the test that provoked it. Off by default: the hooks
    cost one ``is None`` test each, and benchmark artifacts stay
    byte-identical."""
    if os.environ.get("REPRO_LOCKSET") != "1":
        yield
        return
    from repro.core.lockset import LocksetChecker, activate, deactivate

    activate(LocksetChecker())
    try:
        yield
    finally:
        deactivate()


def reference_env() -> Environment:
    """The reference kernel: installing a tie hook turns every fast
    path off, and choosing index 0 at every tie is the reference
    (insertion-order) schedule."""
    env = Environment()
    env.set_tie_hook(lambda tied: 0)
    return env


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def bullet(env):
    return make_bullet(env)
