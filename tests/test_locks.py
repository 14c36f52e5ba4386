"""Units for the per-file lock plane (repro.core.locks): exclusion,
FIFO fairness, writer non-starvation, cancel-while-queued, release by
the ``with`` scope when the holder is crashed mid-hold, the scope's
upgrade and hand-off, and the registry instrumentation."""

import pytest

from repro.core import FileLockTable
from repro.errors import ConsistencyError
from repro.obs import MetricsRegistry
from repro.sim import Environment, Interrupt, run_process


@pytest.fixture
def table(env):
    return FileLockTable(env)


def hold(env, table, log, name, key, mode, work):
    """Process: acquire, note the hold window, release.

    The ``yield lock.grant`` sits inside the ``with`` — the one pattern
    the server ops use: an Interrupt delivered while still *queued*
    must also reach ``release``, which cancels the pending grant
    instead of leaving a ghost waiter at the head of the queue.
    """
    try:
        with (table.reading(key) if mode == "read"
              else table.writing(key)) as lock:
            yield lock.grant
            log.append(("acquired", name, env.now))
            yield env.timeout(work)
    finally:
        log.append(("released", name, env.now))


def test_uncontended_grants_cost_zero_time(env, table):
    def one():
        started = env.now
        grant = table.acquire_write(7)
        yield grant
        assert env.now == started
        table.release(grant)
        grant = table.acquire_read(7)
        yield grant
        assert env.now == started
        table.release(grant)

    run_process(env, one())
    # Idle keys are reclaimed: the table does not grow with every file
    # ever touched.
    assert table.held_keys() == []
    assert table.waiters(7) == 0


def test_readers_share_writers_exclude(env, table):
    log = []
    env.process(hold(env, table, log, "r1", 1, "read", 1.0))
    env.process(hold(env, table, log, "r2", 1, "read", 1.0))
    env.process(hold(env, table, log, "w", 1, "write", 1.0))
    env.run()
    # Both readers overlapped; the writer waited for both.
    assert [e for e in log if e[0] == "acquired"][:2] == [
        ("acquired", "r1", 0.0), ("acquired", "r2", 0.0)]
    w_start = next(t for kind, name, t in log
                   if kind == "acquired" and name == "w")
    assert w_start == 1.0


def test_fifo_fairness_reader_behind_writer_waits(env, table):
    """A reader arriving after a queued writer queues behind it — no
    writer starvation under a stream of readers."""
    log = []

    def scenario():
        yield env.process(noted(0.0, "r1", "read", 2.0))

    def noted(delay, name, mode, work):
        yield env.timeout(delay)
        yield from hold(env, table, log, name, 5, mode, work)

    env.process(noted(0.0, "r1", "read", 2.0))
    env.process(noted(0.5, "w", "write", 1.0))
    env.process(noted(1.0, "r2", "read", 1.0))
    env.run()
    order = [(name, t) for kind, name, t in log if kind == "acquired"]
    # r2 arrived while r1 held the lock and COULD have shared it, but
    # the queued writer goes first (FIFO), then r2.
    assert order == [("r1", 0.0), ("w", 2.0), ("r2", 3.0)]


def test_queued_readers_admitted_as_a_batch(env, table):
    log = []

    def noted(delay, name, mode, work):
        yield env.timeout(delay)
        yield from hold(env, table, log, name, 5, mode, work)

    env.process(noted(0.0, "w", "write", 2.0))
    env.process(noted(0.5, "r1", "read", 1.0))
    env.process(noted(0.6, "r2", "read", 1.0))
    env.run()
    starts = [(name, t) for kind, name, t in log if kind == "acquired"]
    # Both readers start together the moment the writer releases.
    assert starts == [("w", 0.0), ("r1", 2.0), ("r2", 2.0)]


def test_interrupt_during_hold_releases_via_finally(env, table):
    log = []
    holder = env.process(hold(env, table, log, "h", 3, "write", 100.0))

    def crasher():
        yield env.timeout(1.0)
        holder.interrupt("crash")

    env.process(crasher())
    waiter = env.process(hold(env, table, log, "next", 3, "write", 1.0))
    with pytest.raises(Interrupt):
        env.run(until=holder)
    env.run(until=waiter)
    # The interrupted holder released at t=1; the waiter got in then.
    assert ("released", "h", 1.0) in log
    assert ("acquired", "next", 1.0) in log
    assert table.held_keys() == []


def test_interrupt_while_queued_cancels_the_waiter(env, table):
    log = []
    env.process(hold(env, table, log, "holder", 9, "write", 5.0))
    queued = env.process(hold(env, table, log, "queued", 9, "write", 1.0))
    follower = env.process(hold(env, table, log, "after", 9, "read", 1.0))

    def cancel():
        yield env.timeout(1.0)
        queued.interrupt("client gave up")

    env.process(cancel())
    with pytest.raises(Interrupt):
        env.run(until=queued)
    env.run(until=follower)
    # The cancelled waiter never acquired; the one behind it did.
    assert not any(name == "queued" and kind == "acquired"
                   for kind, name, _ in log)
    assert ("acquired", "after", 5.0) in log
    assert table.held_keys() == []


def test_release_is_idempotent_and_strict(env, table):
    def scenario():
        grant = table.acquire_write(1)
        yield grant
        table.release(grant)
        table.release(grant)  # second release of the same grant: no-op

    run_process(env, scenario())
    # Releasing a grant the table never issued for a held key is a bug.
    def bogus():
        grant = table.acquire_write(2)
        yield grant
        other = FileLockTable(env)
        foreign = other.acquire_write(2)
        yield foreign
        with pytest.raises(ConsistencyError):
            table.release(foreign)
        table.release(grant)
        other.release(foreign)

    run_process(env, bogus())


# ------------------------------------------------------------ LockScope

def test_scope_releases_when_the_block_raises(env, table):
    def failing():
        with table.writing(4) as lock:
            yield lock.grant
            assert table.held_keys() == [4]
            raise ConsistencyError("mid-hold failure")

    with pytest.raises(ConsistencyError):
        run_process(env, failing())
    assert table.held_keys() == []
    table.check_invariants()


def test_scope_exit_cancels_a_grant_that_is_still_queued(env, table):
    log = []
    env.process(hold(env, table, log, "holder", 9, "write", 5.0))
    scopes = []

    def queued():
        with table.writing(9) as lock:
            scopes.append(lock)
            yield lock.grant
            log.append(("acquired", "queued", env.now))

    waiter = env.process(queued())

    def cancel():
        yield env.timeout(1.0)
        assert table.waiters(9) == 1
        waiter.interrupt("client gave up")

    env.process(cancel())
    with pytest.raises(Interrupt):
        env.run(until=waiter)
    # Cancelled in the queue, never admitted; the scope owns nothing.
    assert table.waiters(9) == 0 and scopes[0].grant is None
    env.run()
    assert ("acquired", "queued", 5.0) not in log
    assert table.held_keys() == []


def test_upgrade_leaves_exactly_one_write_holder(env, table):
    log = []

    def upgrader():
        with table.reading(2) as lock:
            read_grant = yield lock.grant
            write_grant = yield lock.upgrade()
            assert read_grant.released and read_grant.mode == "read"
            assert lock.grant is write_grant and write_grant.mode == "write"
            table.check_invariants()
            yield env.timeout(1.0)

    def late_reader():
        yield env.timeout(0.5)
        yield from hold(env, table, log, "r", 2, "read", 0.5)

    env.process(upgrader())
    # Exclusive after the upgrade: a reader arriving mid-hold queues.
    env.process(late_reader())
    env.run()
    assert ("acquired", "r", 1.0) in log
    assert table.held_keys() == []
    table.check_invariants()


def test_detached_grant_is_released_once_by_its_adopter(env, table):
    log = []

    def adopter(grant):
        with table.adopt(grant):
            assert grant.owner is env.active_process
            yield env.timeout(2.0)
        log.append(("adopter exit", env.now, table.held_keys()))

    def creator():
        with table.writing(6) as lock:
            yield lock.grant
            lock.detach(env.process(adopter(lock.grant)))
            assert lock.grant is None
        # The creator's exit released nothing: the adopter holds on.
        log.append(("creator exit", env.now, table.held_keys()))

    env.process(creator())
    env.run()
    assert log == [("creator exit", 0.0, [6]), ("adopter exit", 2.0, [])]
    table.check_invariants()


def test_scope_double_exit_is_a_no_op(env, table):
    def twice():
        with table.writing(8) as lock:
            yield lock.grant
        lock.__exit__(None, None, None)
        assert table.held_keys() == []
        # A second holder is unaffected by the stale scope's exit.
        with table.writing(8) as other:
            yield other.grant
            lock.__exit__(None, None, None)
            assert table.held_keys() == [8]

    run_process(env, twice())
    assert table.held_keys() == []


def test_batch_readers_admitted_after_queued_writer_crashes(env):
    """Readers queued behind a writer that crashes *while queued* are
    admitted as one batch when the holder releases — the dead writer
    must not leave a ghost at the head of the FIFO — and the metrics
    stay consistent: the writer's acquisition is never counted."""
    registry = MetricsRegistry()
    table = FileLockTable(env, metrics=registry, owner="bullet")
    log = []

    def noted(delay, name, mode, work):
        yield env.timeout(delay)
        yield from hold(env, table, log, name, 5, mode, work)

    env.process(noted(0.0, "holder", "read", 5.0))
    writer = env.process(noted(0.5, "w", "write", 1.0))
    r1 = env.process(noted(1.0, "r1", "read", 1.0))
    r2 = env.process(noted(1.5, "r2", "read", 1.0))

    def crash_queued_writer():
        yield env.timeout(2.0)
        writer.interrupt("client crash")

    env.process(crash_queued_writer())
    with pytest.raises(Interrupt):
        env.run(until=writer)
    env.run(until=r1)
    env.run(until=r2)
    env.run()
    starts = [(name, t) for kind, name, t in log if kind == "acquired"]
    # The instant the queued writer is cancelled (t=2.0) the read batch
    # can share with the still-reading holder: both readers start
    # together, well before the holder releases at t=5.
    assert starts == [("holder", 0.0), ("r1", 2.0), ("r2", 2.0)]
    # 3 admitted read grants, 0 writes; 3 contended arrivals (w, r1, r2).
    assert registry.value("repro_lock_acquisitions_total",
                          server="bullet", mode="read") == 3
    assert registry.value("repro_lock_acquisitions_total",
                          server="bullet", mode="write") == 0
    assert registry.value("repro_lock_contention_total", server="bullet") == 3
    # The cancelled writer never reached admission, so only the three
    # admitted grants observed a wait (0 + 1.0 + 0.5 seconds of queueing).
    waits = registry.find("repro_lock_wait_seconds", server="bullet")
    assert waits.count == 3 and waits.total == pytest.approx(1.5)
    assert registry.value("repro_lock_held", server="bullet") == 0
    assert table.held_keys() == [] and table.waiters(5) == 0


def test_lock_metrics_account_waits_and_contention(env):
    registry = MetricsRegistry()
    table = FileLockTable(env, metrics=registry, owner="bullet")
    log = []
    env.process(hold(env, table, log, "w", 1, "write", 2.0))
    env.process(hold(env, table, log, "r", 1, "read", 1.0))
    env.run()
    assert registry.value("repro_lock_acquisitions_total",
                          server="bullet", mode="write") == 1
    assert registry.value("repro_lock_acquisitions_total",
                          server="bullet", mode="read") == 1
    assert registry.value("repro_lock_contention_total", server="bullet") == 1
    waits = registry.find("repro_lock_wait_seconds", server="bullet")
    assert waits.count == 2 and waits.total == pytest.approx(2.0)
    assert registry.value("repro_lock_held", server="bullet") == 0
