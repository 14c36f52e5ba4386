"""The dynamic half of the concurrency suite (DESIGN.md §11): waits-for
deadlock detection in the lock table, the Eraser-style lockset checker,
and the determinism of both planes' reports — a race or deadlock found
once must render byte-identically on every same-seed replay."""

from collections.abc import Mapping

import pytest

from conftest import make_bullet
from repro.core.lockset import (
    GuardedMap,
    LocksetChecker,
    RaceReport,
    activate,
    active_checker,
    deactivate,
)
from repro.core import FileLockTable
from repro.errors import DeadlockError
from repro.sim import Environment, run_process


@pytest.fixture
def checker():
    """An activated checker, deactivated again at teardown."""
    checker = activate(LocksetChecker())
    yield checker
    deactivate()


# ------------------------------------------------------------- deadlock

def _ab_ba_deadlock():
    """Run the classic AB-BA deadlock; returns the rendered cycle."""
    env = Environment()
    table = FileLockTable(env)
    messages = []

    def worker(first, second):
        try:
            with table.writing(first) as held:
                yield held.grant
                yield env.timeout(1)
                with table.writing(second) as wanted:
                    yield wanted.grant
        except DeadlockError as exc:
            messages.append(str(exc))
            raise

    env.process(worker(1, 2))
    env.process(worker(2, 1))
    with pytest.raises(DeadlockError):
        env.run()
    return messages


def test_ab_ba_deadlock_aborts_with_the_cycle():
    messages = _ab_ba_deadlock()
    assert len(messages) == 1
    (message,) = messages
    assert "waits-for cycle among 2 process(es)" in message
    assert "waits for write on inode 1" in message
    assert "waits for write on inode 2" in message
    assert "worker" in message  # process names, not raw ids


def test_deadlock_report_is_deterministic_across_runs():
    assert _ab_ba_deadlock() == _ab_ba_deadlock()


def test_self_deadlock_reacquiring_held_key(env):
    """A writer re-acquiring its own key without releasing waits on
    itself — a cycle of one, caught at the second acquire."""
    table = FileLockTable(env)

    def worker():
        with table.writing(5) as lock:
            yield lock.grant
            with table.writing(5) as again:
                yield again.grant

    with pytest.raises(DeadlockError, match="1 process"):
        run_process(env, worker())
    assert table.held_keys() == []


def test_detection_leaves_the_table_consistent(env):
    """The error lands on the requester that *closes* the cycle; when it
    backs off (releases what it holds), the earlier waiter — queued
    without incident — is admitted and the lock plane keeps working."""
    table = FileLockTable(env)
    log = []

    def early():
        # Holds 1, queues for 2 before any cycle exists.
        with table.writing(1) as one:
            yield one.grant
            yield env.timeout(1)
            with table.writing(2) as two:
                yield two.grant
                log.append(("early got 2", env.now))

    def late():
        # Holds 2; its request for 1 closes the cycle and is refused.
        with table.writing(2) as two:
            yield two.grant
            yield env.timeout(1)
            with pytest.raises(DeadlockError):
                table.writing(1).__enter__()

    env.process(early())
    env.process(late())
    env.run()
    assert log == [("early got 2", 1.0)]
    assert table.held_keys() == []
    assert table.waiters(1) == 0 and table.waiters(2) == 0


def test_acquire_outside_a_process_skips_detection(env):
    # No active process: nothing to hang, nothing to blame.
    table = FileLockTable(env)
    with table.writing(3) as lock:
        assert lock.grant.owner is None
    assert table.held_keys() == []


# -------------------------------------------------------------- lockset

def _locked_vs_unlocked_race():
    """One process writes under the lock, another without it; returns
    the rendered RaceReport."""
    env = Environment()
    table = FileLockTable(env)
    checker = activate(LocksetChecker())
    reports = []

    def locked_writer():
        with table.writing(7) as lock:
            yield lock.grant
            checker.on_access(("Store._sizes", 7), True,
                              env.active_process, env.now)

    def unlocked_writer():
        yield env.timeout(1)
        try:
            checker.on_access(("Store._sizes", 7), True,
                              env.active_process, env.now)
        except RaceReport as exc:
            reports.append(str(exc))

    try:
        env.process(locked_writer())
        env.process(unlocked_writer())
        env.run()
    finally:
        deactivate()
    return reports


def test_lockset_violation_raises_race_report():
    reports = _locked_vs_unlocked_race()
    assert len(reports) == 1
    (report,) = reports
    assert "lockset violation on Store._sizes[7]" in report
    assert "holding no locks" in report
    assert "holding {bullet:7}" in report
    assert "unlocked_writer" in report and "locked_writer" in report
    assert "t=1.0" in report and "t=0.0" in report


def test_race_report_is_deterministic_across_runs():
    assert _locked_vs_unlocked_race() == _locked_vs_unlocked_race()


def test_consistently_locked_accesses_stay_silent(env, checker):
    table = FileLockTable(env)

    def writer(delay):
        yield env.timeout(delay)
        with table.writing(7) as lock:
            yield lock.grant
            checker.on_access(("Store._sizes", 7), True,
                              env.active_process, env.now)

    env.process(writer(0))
    env.process(writer(1))
    env.run()
    assert checker.accesses == 2


def test_exclusive_phase_is_never_reported(env, checker):
    # A single process may touch its own state lock-free forever.
    def loner():
        for _ in range(3):
            yield env.timeout(1)
            checker.on_access(("Store._sizes", 1), True,
                              env.active_process, env.now)

    run_process(env, loner())
    assert checker.accesses == 3


def test_reset_separates_incarnations(env, checker):
    """Unlocked access by a second process is fine after reset(): the
    destroyed object's history must not damn its reincarnation."""
    def first_life():
        yield env.timeout(1)
        checker.on_access(("Store._sizes", 2), True,
                          env.active_process, env.now)

    def second_life():
        yield env.timeout(2)
        checker.on_access(("Store._sizes", 2), True,
                          env.active_process, env.now)

    run_process(env, first_life())
    checker.reset(("Store._sizes", 2))
    run_process(env, second_life())  # would race without the reset


def test_release_drops_the_holding(env, checker):
    table = FileLockTable(env)

    def worker():
        process = env.active_process
        with table.writing(4) as lock:
            yield lock.grant
            assert checker.holdings(process) == {("bullet", 4)}
        assert checker.holdings(process) == frozenset()

    run_process(env, worker())


# ---------------------------------------------------------- guarded map

def test_guarded_map_has_no_write_that_skips_the_checker(env, checker):
    """Everything the class offers is listed here, and each entry point
    that changes the table feeds the checker: a guarded write without a
    hook cannot be written."""
    reads, writes = {"get"}, {"__setitem__", "discard"}
    offered = {name for name, member in vars(GuardedMap).items()
               if callable(member) and name != "__init__"}
    assert offered == reads | writes
    # Not a dict in disguise: no update()/setdefault()/clear() to inherit.
    assert not isinstance(GuardedMap("t", env), (dict, Mapping))

    table = GuardedMap("store._sizes", env, {1: 10})

    def writer():
        yield env.timeout(1)
        before = checker.accesses
        table[1] = 11
        assert checker.accesses == before + 1
        table.discard(1)
        assert checker.accesses == before + 2
        assert table.get(1, None) is None
        assert checker.accesses == before + 2  # reads are plain

    run_process(env, writer())


def test_guarded_map_write_without_the_lock_is_a_race(env, checker):
    table = GuardedMap("store._sizes", env)
    locks = FileLockTable(env)

    def locked():
        with locks.writing(7) as lock:
            yield lock.grant
            table[7] = 1

    def unlocked():
        yield env.timeout(1)
        table[7] = 2

    run_process(env, locked())
    with pytest.raises(RaceReport, match=r"store\._sizes\[7\]"):
        run_process(env, unlocked())


def test_guarded_map_discard_starts_a_fresh_incarnation(env, checker):
    table = GuardedMap("store._sizes", env)

    def life():
        yield env.timeout(1)
        table[2] = 1
        table.discard(2)

    run_process(env, life())
    run_process(env, life())  # a second process, no common lock: no report


# ------------------------------------------------------- integration

def test_server_lives_accesses_feed_the_checker(env, checker):
    """CREATE/TOUCH/AGE drive the instrumented ``_lives`` sites through
    the real lock plane with zero reports."""
    bullet = make_bullet(env, workers=4)
    cap = run_process(env, bullet.create(b"x" * 512))
    run_process(env, bullet.touch(cap))
    run_process(env, bullet.age_all())
    assert checker.accesses >= 3


def test_process_names_are_replay_stable():
    def snapshot():
        env = Environment()

        def ping():
            yield env.timeout(1)

        procs = [env.process(ping()) for _ in range(3)]
        env.run()
        return [p.name for p in procs]

    first, second = snapshot(), snapshot()
    assert first == second
    assert len(set(first)) == 3  # serials disambiguate equal qualnames
