"""Additional edge-case coverage for the simulation kernel: condition
failure semantics, interrupt corner cases, and event ordering under
composition."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    CountOf,
    Environment,
    Event,
    Interrupt,
    run_process,
)

from conftest import after


def test_all_of_fails_on_first_failure():
    env = Environment()

    def failer():
        yield env.timeout(1.0)
        raise ValueError("subtask died")

    def proc():
        events = [env.timeout(5.0), env.process(failer())]
        try:
            yield AllOf(env, events)
        except ValueError as exc:
            return (env.now, str(exc))

    assert run_process(env, proc()) == (1.0, "subtask died")


def test_any_of_fails_only_when_all_fail():
    env = Environment()

    def failer(delay):
        yield env.timeout(delay)
        raise ValueError(f"failed at {delay}")

    def proc():
        events = [env.process(failer(1.0)), env.process(failer(2.0))]
        try:
            yield AnyOf(env, events)
        except ValueError as exc:
            return (env.now, str(exc))

    now, message = run_process(env, proc())
    assert now == 2.0
    assert message == "failed at 1.0"  # first failure is reported


def test_any_of_succeeds_despite_one_failure():
    env = Environment()

    def failer():
        yield env.timeout(1.0)
        raise ValueError("one bad")

    def proc():
        events = [env.process(failer()), after(env, 2.0, "good")]
        values = yield AnyOf(env, events)
        return (env.now, values)

    assert run_process(env, proc()) == (2.0, ["good"])


def test_all_of_empty_list_succeeds_immediately():
    env = Environment()

    def proc():
        values = yield AllOf(env, [])
        return (env.now, values)

    assert run_process(env, proc()) == (0.0, [])


def test_condition_over_already_processed_events():
    env = Environment()
    early = after(env, 0.5, "early")
    env.run(until=1.0)
    assert early.processed

    def proc():
        values = yield AllOf(env, [early, after(env, 1.0, "late")])
        return (env.now, sorted(values))

    assert run_process(env, proc()) == (2.0, ["early", "late"])


def test_count_of_values_in_event_order():
    env = Environment()

    def proc():
        events = [after(env, 3.0, "a"), after(env, 1.0, "b"),
                  after(env, 2.0, "c")]
        values = yield CountOf(env, events, need=2)
        return values

    # b (t=1) and c (t=2) fired; values keep *event list* order.
    assert run_process(env, proc()) == ["b", "c"]


def test_interrupt_during_condition_wait():
    env = Environment()

    def victim():
        try:
            yield AllOf(env, [env.timeout(10.0), env.timeout(20.0)])
        except Interrupt:
            return env.now

    def attacker(target):
        yield env.timeout(1.0)
        target.interrupt()

    v = env.process(victim())
    env.process(attacker(v))
    assert env.run(until=v) == 1.0


def test_double_interrupt_both_delivered():
    env = Environment()
    hits = []

    def victim():
        for _ in range(2):
            try:
                yield env.timeout(10.0)
            except Interrupt as intr:
                hits.append((env.now, intr.cause))
        yield env.timeout(0.5)
        return len(hits)

    def attacker(target):
        yield env.timeout(1.0)
        target.interrupt("first")
        yield env.timeout(1.0)
        target.interrupt("second")

    v = env.process(victim())
    env.process(attacker(v))
    assert env.run(until=v) == 2
    assert hits == [(1.0, "first"), (2.0, "second")]


def test_process_failure_propagates_through_nesting():
    env = Environment()

    def inner():
        yield env.timeout(1.0)
        raise KeyError("deep failure")

    def middle():
        return (yield env.process(inner()))

    def outer():
        try:
            yield env.process(middle())
        except KeyError as exc:
            return f"caught {exc}"

    assert run_process(env, outer()) == "caught 'deep failure'"


def test_simultaneous_events_preserve_creation_order():
    env = Environment()
    order = []

    def waiter(tag, event):
        yield event
        order.append(tag)

    events = [env.timeout(1.0) for _ in range(5)]
    for tag, event in enumerate(events):
        env.process(waiter(tag, event))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_value_before_trigger_rejected():
    env = Environment()
    with pytest.raises(RuntimeError):
        env.event().value


def test_timeout_value_carried():
    """A timeout carries no value of its own: its waiter resumes with
    None; a value to deliver later is a process's return value."""
    env = Environment()

    def proc():
        plain = yield env.timeout(0.5)
        carried = yield after(env, 0.5, {"key": 42})
        return plain, carried

    assert run_process(env, proc()) == (None, {"key": 42})


def test_zero_delay_timeout_runs_after_current_turn():
    env = Environment()
    order = []

    def first():
        order.append("first-start")
        yield env.timeout(0.0)
        order.append("first-resumed")

    def second():
        order.append("second-start")
        yield env.timeout(0.0)
        order.append("second-resumed")

    env.process(first())
    env.process(second())
    env.run()
    assert order == ["first-start", "second-start",
                     "first-resumed", "second-resumed"]
