"""Unit tests for the unified fault plane (repro.faults) and the
client retry layer (repro.client.retry).

The matrix-style end-to-end scenarios live in test_fault_matrix.py;
this file covers the pieces: plan validation, controller attachment and
firing, the event-driven write-count injector (including the regression
for the old busy-poll), retry policy arithmetic, and the determinism
artifact (same seed + same plan => byte-identical firing/retry traces).
"""

import pytest

from repro.client import BulletClient, Retrier, RetryPolicy
from repro.disk import MirroredDiskSet, VirtualDisk
from repro.errors import (
    BadRequestError,
    DiskIOError,
    NotFoundError,
    RpcTimeoutError,
    ServerDownError,
)
from repro.faults import (
    FaultController,
    FaultPlan,
    arm_fail_after_writes,
)
from repro.net import Ethernet, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, SeededStream, Tracer, run_process

from conftest import SMALL_DISK, make_bullet


# ---------------------------------------------------------------- plans


def test_plan_builders_chain_and_describe():
    plan = (FaultPlan()
            .disk_fail("d0", at=0.5)
            .disk_degrade("d0", at=1.0, factor=4.0, duration=2.0)
            .net_partition(at=2.0, duration=1.0)
            .server_crash("bullet", at=3.0)
            .server_restart("bullet", at=4.0))
    assert len(plan) == 5
    kinds = [e.kind for e in plan]
    assert kinds == ["disk.fail", "disk.degrade", "net.partition",
                     "server.crash", "server.restart"]
    text = plan.describe()
    assert "disk.fail -> d0" in text
    assert "net.partition -> net" in text
    plan.validate()  # already-validated events stay valid


def test_plan_rejects_unknown_kind():
    with pytest.raises(BadRequestError, match="unknown fault kind"):
        FaultPlan().add("disk.explode", "d0", at=1.0)


def test_plan_rejects_missing_params():
    with pytest.raises(BadRequestError, match="missing params: duration"):
        FaultPlan().add("net.partition", "net", at=1.0)


def test_plan_rejects_bad_ranges():
    with pytest.raises(BadRequestError, match="negative"):
        FaultPlan().disk_fail("d0", at=-1.0)
    with pytest.raises(BadRequestError, match="writes"):
        FaultPlan().disk_fail_after_writes("d0", writes=0)
    with pytest.raises(BadRequestError, match="factor"):
        FaultPlan().disk_degrade("d0", at=0.0, factor=0.5)
    with pytest.raises(BadRequestError, match="probability"):
        FaultPlan().net_loss(at=0.0, duration=1.0, probability=1.5)
    with pytest.raises(BadRequestError, match="duration"):
        FaultPlan().net_partition(at=0.0, duration=0.0)


def test_event_param_lookup():
    plan = FaultPlan().net_loss(at=1.0, duration=2.0, probability=0.25)
    event = plan.events[0]
    assert event.param("probability") == 0.25
    assert event.param("nonexistent", "fallback") == "fallback"


# ----------------------------------------------------------- controller


def test_controller_rejects_unattached_target(env):
    ctrl = FaultController(env, FaultPlan().disk_fail("ghost", at=1.0))
    with pytest.raises(BadRequestError, match="not attached"):
        ctrl.start()


def test_controller_rejects_role_mismatch(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d0")
    ctrl = FaultController(env, FaultPlan().net_partition(at=1.0, duration=1.0,
                                                         target="d0"))
    ctrl.attach_disk("d0", disk)
    with pytest.raises(BadRequestError, match="needs a net target"):
        ctrl.start()


def test_controller_rejects_duplicate_attachment(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d0")
    ctrl = FaultController(env, FaultPlan())
    ctrl.attach_disk("d0", disk)
    with pytest.raises(BadRequestError, match="already attached"):
        ctrl.attach_disk("d0", disk)


def test_controller_rejects_double_start_and_late_attach(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d0")
    ctrl = FaultController(env, FaultPlan().disk_fail("d0", at=1.0))
    ctrl.attach_disk("d0", disk).start()
    with pytest.raises(BadRequestError, match="already started"):
        ctrl.start()
    with pytest.raises(BadRequestError, match="after start"):
        ctrl.attach_disk("d1", disk)


def test_controller_fires_disk_fail_at_planned_time(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d0")
    ctrl = FaultController(env, FaultPlan().disk_fail("d0", at=0.25))
    ctrl.attach_disk("d0", disk).start()
    env.run(until=env.timeout(0.2))
    assert not disk.failed
    env.run(until=env.timeout(0.1))
    assert disk.failed
    assert ctrl.firings == [(0.25, "disk.fail", "d0", "")]


def test_controller_degrade_window_reverts(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d0")
    ctrl = FaultController(
        env, FaultPlan().disk_degrade("d0", at=0.1, factor=8.0, duration=0.5)
    )
    ctrl.attach_disk("d0", disk).start()

    def timed_read():
        yield env.timeout(0.2)  # inside the window
        t0 = env.now
        yield disk.read(0, 4)
        slow = env.now - t0
        yield env.timeout(1.0)  # past the window
        t0 = env.now
        yield disk.read(0, 4)
        fast = env.now - t0
        return slow, fast

    slow, fast = run_process(env, timed_read())
    assert slow > fast * 4  # degraded access is markedly slower
    kinds = [(k, d) for _t, k, _tg, d in ctrl.firings]
    assert ("disk.degrade", "reverted") in kinds


def test_controller_flaky_window_fails_then_heals(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d0")
    ctrl = FaultController(
        env,
        FaultPlan().disk_flaky("d0", at=0.1, start_block=100, nblocks=8,
                               duration=0.5),
    )
    ctrl.attach_disk("d0", disk).start()

    def reader():
        yield env.timeout(0.2)
        with pytest.raises(DiskIOError, match="media error"):
            yield disk.read(100, 4)
        assert not disk.failed  # flaky != dead
        yield env.timeout(1.0)
        yield disk.read(100, 4)  # healed
        return True

    assert run_process(env, reader()) is True


def test_controller_partition_flips_lossy_and_heals(env):
    eth = Ethernet(env, EthernetProfile())
    ctrl = FaultController(
        env, FaultPlan().net_partition(at=0.1, duration=0.4)
    )
    ctrl.attach_ethernet("net", eth).start()
    assert not eth.lossy
    env.run(until=env.timeout(0.2))
    assert eth.lossy
    env.run(until=env.timeout(0.5))
    assert not eth.lossy
    details = [d for _t, k, _tg, d in ctrl.firings if k == "net.partition"]
    assert details == ["", "healed"]


def test_controller_server_crash_and_restart(env):
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    t0 = env.now
    ctrl = FaultController(
        env,
        FaultPlan().server_crash("bullet", at=t0 + 0.1)
                   .server_restart("bullet", at=t0 + 0.5),
    )
    ctrl.attach_server("bullet", bullet).start()
    client = BulletClient(env, rpc, bullet.port, timeout=0.2)

    def scenario():
        cap = yield from client.create(b"survivor", 1)
        yield env.timeout(0.2)  # now inside the crash window
        with pytest.raises(ServerDownError):
            yield from client.read(cap)
        yield env.timeout(1.0)  # past the restart
        data = yield from client.read(cap)
        return data

    assert run_process(env, scenario()) == b"survivor"
    kinds = [k for _t, k, _tg, _d in ctrl.firings]
    assert kinds == ["server.crash", "server.restart", "server.restart"]


# ------------------------------------------- write-count fault injector


def test_fail_after_writes_fires_exactly_at_nth_write(env):
    """Regression for the old busy-poll: the disk must be dead the
    instant the Nth write completes — not ``seek_settle / 2`` later when
    a polling daemon happened to wake up."""
    disk = VirtualDisk(env, SMALL_DISK, name="fx")
    arm_fail_after_writes(disk, 3)
    observed = []

    def writer():
        for i in range(5):
            try:
                yield disk.write(i * 8, b"x" * disk.block_size)
            except DiskIOError:
                observed.append(("fail", i, disk.failed))
                break
            observed.append(("ok", i, disk.failed))

    env.run(until=env.process(writer()))
    # The 3rd write itself completes durably, and by the time the writer
    # resumes the disk is already dead; the 4th write fails at submit.
    assert observed == [
        ("ok", 0, False),
        ("ok", 1, False),
        ("ok", 2, True),
        ("fail", 3, True),
    ]
    assert disk.stats.writes == 3


def test_fail_after_writes_ignores_reads(env):
    disk = VirtualDisk(env, SMALL_DISK, name="fx")
    arm_fail_after_writes(disk, 2, "test fault")

    def worker():
        yield disk.write(0, b"a")
        yield disk.read(0, 1)
        yield disk.read(0, 1)
        assert not disk.failed  # reads must not advance the count
        yield disk.write(8, b"b")

    env.run(until=env.process(worker()))
    assert disk.failed
    assert disk.stats.reads == 2


def test_fail_after_writes_rejects_nonpositive_count(env):
    disk = VirtualDisk(env, SMALL_DISK, name="fx")
    with pytest.raises(ValueError):
        arm_fail_after_writes(disk, 0, "bad")


def test_mirror_failover_escalates_on_persistently_flaky_replicas(env):
    """A flaky-but-live extent on every replica must raise, not spin the
    failover loop forever."""
    disks = [VirtualDisk(env, SMALL_DISK, name=f"m{i}") for i in range(2)]
    mirror = MirroredDiskSet(env, disks)
    for disk in disks:
        disk.mark_flaky(50, 4)

    def reader():
        with pytest.raises(DiskIOError):
            yield from mirror.read_with_failover(50, 2)
        return True

    assert run_process(env, reader()) is True


# -------------------------------------------------------- retry policy


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=1.0, max_delay=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(deadline=0.0)


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                         jitter=0.0)
    delays = [policy.backoff(k, None) for k in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_retry_policy_jitter_is_seeded_and_bounded():
    policy = RetryPolicy(base_delay=0.1, multiplier=1.0, max_delay=0.1,
                         jitter=0.2)
    a = [policy.backoff(0, SeededStream(7, "j")) for _ in range(3)]
    b = [policy.backoff(0, SeededStream(7, "j")) for _ in range(3)]
    assert a[0] == b[0]  # same stream state => same draw
    for d in a:
        assert 0.08 <= d <= 0.12


def test_retrier_retries_transient_then_succeeds(env):
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.0)
    retrier = Retrier(env, policy)
    calls = []

    def attempt():
        yield env.timeout(0.01)
        calls.append(env.now)
        if len(calls) < 3:
            raise ServerDownError("flap")
        return "ok"

    result = run_process(
        env, retrier.run(attempt, op="t", idempotent=True)
    )
    assert result == "ok"
    assert retrier.attempts == 3
    assert retrier.retries == 2
    assert retrier.gave_up == 0


def test_retrier_raises_nontransient_immediately(env):
    retrier = Retrier(env, RetryPolicy(jitter=0.0))

    def attempt():
        yield env.timeout(0.01)
        raise NotFoundError("definitive")

    def runner():
        with pytest.raises(NotFoundError):
            yield from retrier.run(attempt, op="t", idempotent=True)
        return True

    assert run_process(env, runner()) is True
    assert retrier.attempts == 1


def test_retrier_refuses_unguarded_nonidempotent_retry(env):
    retrier = Retrier(env, RetryPolicy(jitter=0.0))

    def attempt():
        yield env.timeout(0.01)
        raise RpcTimeoutError("maybe executed")

    def runner():
        with pytest.raises(RpcTimeoutError):
            yield from retrier.run(attempt, op="t", idempotent=False,
                                   dedupe=False)
        return True

    assert run_process(env, runner()) is True
    assert retrier.attempts == 1
    assert retrier.retries == 0


def test_retrier_retries_nonidempotent_with_dedupe_guard(env):
    retrier = Retrier(env, RetryPolicy(max_attempts=4, base_delay=0.05,
                                       jitter=0.0))
    calls = []

    def attempt():
        yield env.timeout(0.01)
        calls.append(env.now)
        if len(calls) < 2:
            raise RpcTimeoutError("reply lost")
        return "created"

    result = run_process(
        env, retrier.run(attempt, op="t", idempotent=False, dedupe=True)
    )
    assert result == "created"
    assert retrier.attempts == 2


def test_retrier_gives_up_after_max_attempts(env):
    retrier = Retrier(env, RetryPolicy(max_attempts=3, base_delay=0.05,
                                       jitter=0.0))

    def attempt():
        yield env.timeout(0.01)
        raise ServerDownError("always down")

    def runner():
        with pytest.raises(ServerDownError):
            yield from retrier.run(attempt, op="t", idempotent=True)
        return True

    assert run_process(env, runner()) is True
    assert retrier.attempts == 3
    assert retrier.gave_up == 1


def test_retrier_respects_deadline(env):
    retrier = Retrier(env, RetryPolicy(max_attempts=10, base_delay=0.5,
                                       jitter=0.0, deadline=0.3))

    def attempt():
        yield env.timeout(0.01)
        raise ServerDownError("down")

    def runner():
        with pytest.raises(ServerDownError):
            yield from retrier.run(attempt, op="t", idempotent=True)
        return True

    assert run_process(env, runner()) is True
    # The first backoff (0.5s) would blow the 0.3s budget: stop at once.
    assert retrier.attempts == 1
    assert env.now < 0.3


# ---------------------------------------------------------- determinism


def _traced_fault_run(seed: int):
    """One self-contained faulty run; returns its determinism artifacts."""
    env = Environment()
    tracer = Tracer(env, categories={"fault", "retry"})
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    client = BulletClient(
        env, rpc, bullet.port, timeout=0.4,
        retry=RetryPolicy(max_attempts=8, base_delay=0.2, max_delay=1.0),
        retry_stream=SeededStream(seed, "client-retry"), tracer=tracer,
    )
    t0 = env.now
    plan = (FaultPlan()
            .net_loss(at=t0 + 0.05, duration=1.0, probability=0.4)
            .server_crash("bullet", at=t0 + 1.5)
            .server_restart("bullet", at=t0 + 2.5))
    ctrl = FaultController(env, plan, master_seed=seed, tracer=tracer)
    ctrl.attach_ethernet("net", eth).attach_server("bullet", bullet).start()

    def workload():
        cap = yield from client.create(b"deterministic payload" * 40, 1)
        yield env.timeout(1.6)  # into the crash window
        data = yield from client.read(cap)  # retried across the restart
        return data

    data = run_process(env, workload())
    assert data == b"deterministic payload" * 40
    return ctrl.firings_text(), tracer.dump()


def test_same_seed_same_plan_is_byte_identical():
    firings_a, trace_a = _traced_fault_run(seed=11)
    firings_b, trace_b = _traced_fault_run(seed=11)
    assert firings_a == firings_b
    assert trace_a == trace_b
    assert firings_a  # the scenario actually fired faults


def test_second_seed_also_replays_identically():
    firings_a, trace_a = _traced_fault_run(seed=29)
    firings_b, trace_b = _traced_fault_run(seed=29)
    assert (firings_a, trace_a) == (firings_b, trace_b)
