"""Model-based testing of the Bullet server.

Hypothesis drives random CREATE/READ/DELETE/MODIFY sequences against a
real server while :class:`repro.modelcheck.RefModel` — the same oracle
the exhaustive model checker uses — tracks intended state. After every
operation the server's internal invariants must hold; at the end, the
server is rebooted from its disks and must agree with the oracle
exactly (for files written with P-FACTOR >= 1).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BulletServer
from repro.errors import NoSpaceError, NotFoundError, ReproError
from repro.modelcheck import RefModel
from repro.sim import Environment, run_process
from repro.units import KB

from conftest import make_bullet


class Step:
    """One scripted operation (sizes small to keep runs fast)."""

    def __init__(self, kind, size, target, offset, delete_bytes):
        self.kind = kind
        self.size = size
        self.target = target
        self.offset = offset
        self.delete_bytes = delete_bytes

    def __repr__(self):
        return (f"Step({self.kind}, size={self.size}, target={self.target}, "
                f"off={self.offset}, del={self.delete_bytes})")


steps = st.builds(
    Step,
    kind=st.sampled_from(["create", "read", "delete", "modify", "evict"]),
    size=st.integers(min_value=0, max_value=8 * KB),
    target=st.integers(min_value=0, max_value=1 << 16),
    offset=st.integers(min_value=0, max_value=8 * KB),
    delete_bytes=st.integers(min_value=0, max_value=2 * KB),
)


def check_invariants(bullet):
    bullet.incarnation.disk_free.check_invariants()
    bullet.incarnation.cache.check_invariants()
    # Accounting: every live inode's extent is allocated, totals match.
    used = 0
    for _number, inode in bullet.incarnation.table.live_inodes():
        blocks = bullet.incarnation.layout.blocks_for(inode.size)
        used += blocks
        if blocks:
            assert not bullet.incarnation.disk_free.is_free(inode.start_block, blocks)
    assert used == bullet.incarnation.disk_free.used_units
    # Every inode.index points at an rnode for that inode, and vice versa.
    for number, inode in bullet.incarnation.table.live_inodes():
        rnode = bullet.incarnation.cache.peek(number)
        assert inode.index == (rnode.number if rnode is not None else 0)


@given(script=st.lists(steps, max_size=40))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bullet_server_matches_reference_model(script):
    env = Environment()
    bullet = make_bullet(env)
    model = RefModel()
    content_counter = 0

    for step in script:
        cap = model.pick(step.target)
        if step.kind == "create":
            content_counter += 1
            payload = (content_counter.to_bytes(4, "big") * (step.size // 4 + 1))[: step.size]
            try:
                new_cap = run_process(env, bullet.create(payload, 2))
            except NoSpaceError:
                continue
            assert new_cap not in model
            model.create(new_cap, payload)
        elif step.kind == "read":
            if cap is None:
                continue
            assert run_process(env, bullet.read(cap)) == model.data(cap)
        elif step.kind == "delete":
            if cap is None:
                continue
            run_process(env, bullet.delete(cap))
            model.delete(cap)
            with pytest.raises((NotFoundError, ReproError)):
                run_process(env, bullet.read(cap))
        elif step.kind == "modify":
            if cap is None:
                continue
            old = model.data(cap)
            offset, delete_bytes = RefModel.clamp_modify(
                len(old), step.offset, step.delete_bytes)
            insert = b"MOD" * 5
            try:
                new_cap = run_process(env, bullet.modify(
                    cap, offset, delete_bytes, insert, 2))
            except NoSpaceError:
                continue
            model.create(new_cap,
                         RefModel.spliced(old, offset, delete_bytes, insert))
            assert model.data(cap) == old  # immutability of the source
        elif step.kind == "evict" and cap is not None:
            bullet.evict(cap.object)
        check_invariants(bullet)

    # ---- Reboot from disk: everything must survive exactly. -------------
    bullet.crash()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    report = env.run(until=env.process(reborn.boot()))
    assert report.live_files == len(model)
    assert reborn.incarnation.disk_free.free_units == bullet.incarnation.disk_free.free_units
    for cap, expected in model.items():
        assert run_process(env, reborn.read(cap)) == expected
    check_invariants(reborn)


crash_steps = st.builds(
    Step,
    kind=st.sampled_from(["create", "read", "delete", "modify", "crash"]),
    size=st.integers(min_value=0, max_value=8 * KB),
    target=st.integers(min_value=0, max_value=1 << 16),
    offset=st.integers(min_value=0, max_value=8 * KB),
    delete_bytes=st.integers(min_value=0, max_value=2 * KB),
)


@given(script=st.lists(crash_steps, max_size=25))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bullet_server_survives_random_crash_restart(script):
    """Crash/restart as a first-class transition: at any point the
    server may lose all volatile state and reboot from its disks. After
    every restart the scan-on-startup invariants must hold and the
    durable contents must match the oracle exactly (all files written
    with P-FACTOR 2, so the reply implied durability on both disks)."""
    env = Environment()
    bullet = make_bullet(env)
    model = RefModel()
    content_counter = 0

    for step in script:
        cap = model.pick(step.target)
        if step.kind == "crash":
            bullet.crash()
            reborn = BulletServer(env, bullet.mirror, bullet.testbed,
                                  name="bullet")
            report = env.run(until=env.process(reborn.boot()))
            # Scan-on-startup invariants after this crash point. Every
            # write here completed with P-FACTOR 2, so the oracle has no
            # uncertain files and the live count must match exactly.
            assert not model.has_uncertain()
            assert report.live_files == len(model)
            check_invariants(reborn)
            bullet = reborn
            # RAM cache died with the old incarnation; everything must
            # still be readable straight from disk.
            for c, expected in model.items():
                assert run_process(env, bullet.read(c)) == expected
            continue
        if step.kind == "create":
            content_counter += 1
            payload = (content_counter.to_bytes(4, "big")
                       * (step.size // 4 + 1))[: step.size]
            try:
                new_cap = run_process(env, bullet.create(payload, 2))
            except NoSpaceError:
                continue
            model.create(new_cap, payload)
        elif step.kind == "read":
            if cap is None:
                continue
            assert run_process(env, bullet.read(cap)) == model.data(cap)
        elif step.kind == "delete":
            if cap is None:
                continue
            run_process(env, bullet.delete(cap))
            model.delete(cap)
        elif step.kind == "modify":
            if cap is None:
                continue
            old = model.data(cap)
            offset, delete_bytes = RefModel.clamp_modify(
                len(old), step.offset, step.delete_bytes)
            try:
                new_cap = run_process(env, bullet.modify(
                    cap, offset, delete_bytes, b"CRASHMOD", 2))
            except NoSpaceError:
                continue
            model.create(new_cap, RefModel.spliced(
                old, offset, delete_bytes, b"CRASHMOD"))
        check_invariants(bullet)

    # Final incarnation still agrees with the oracle.
    for cap, expected in model.items():
        assert run_process(env, bullet.read(cap)) == expected
    check_invariants(bullet)
