"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    CountOf,
    Environment,
    Event,
    Interrupt,
    Timeout,
    run_process,
)

from conftest import after, reference_env
from test_kernel_equivalence import HopSource


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment()
    env.run(until=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(1.5)
        return env.now

    assert run_process(env, proc()) == 1.5


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_timeout_delay_that_is_not_a_finite_time_rejected(delay):
    # NaN compares false with everything, so "delay < 0" lets it through:
    # such a timeout sorts anywhere in the heap and sets the clock to NaN
    # for the dispatch that pops it.
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(delay)


def test_run_until_nan_rejected():
    # "until < now" is false for NaN too: the run would dispatch
    # everything and leave the clock at NaN, and every later timeout
    # with it.
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(ValueError):
        env.run(until=float("nan"))
    assert env.now == 0.0


def test_timeouts_fire_in_order():
    env = Environment()
    fired = []

    def waiter(delay, tag):
        yield env.timeout(delay)
        fired.append(tag)

    env.process(waiter(3.0, "c"))
    env.process(waiter(1.0, "a"))
    env.process(waiter(2.0, "b"))
    env.run()
    assert fired == ["a", "b", "c"]


def test_same_time_ties_broken_by_insertion_order():
    env = Environment()
    fired = []

    def waiter(tag):
        yield env.timeout(1.0)
        fired.append(tag)

    for tag in ("first", "second", "third"):
        env.process(waiter(tag))
    env.run()
    assert fired == ["first", "second", "third"]


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value + 1

    assert run_process(env, parent()) == 43


def test_nested_processes_accumulate_time():
    env = Environment()

    def child():
        yield env.timeout(2.0)

    def parent():
        yield env.process(child())
        yield env.process(child())
        return env.now

    assert run_process(env, parent()) == 4.0


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()

    def triggerer():
        yield env.timeout(1.0)
        ev.succeed("payload")

    def waiter():
        value = yield ev
        return (env.now, value)

    env.process(triggerer())
    assert run_process(env, waiter()) == (1.0, "payload")


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def triggerer():
        yield env.timeout(1.0)
        ev.fail(ValueError("boom"))

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return str(exc)
        return "no exception"

    env.process(triggerer())
    assert run_process(env, waiter()) == "boom"


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_unhandled_failure_surfaces_from_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1.0)

    env.process(ticker())
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"


def test_run_until_event_reraises_failure():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise KeyError("inside process")

    p = env.process(proc())
    with pytest.raises(KeyError):
        env.run(until=p)


def test_run_until_never_firing_event_reports_deadlock():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError, match="deadlock"):
        env.run(until=ev)


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run(until=0.0)  # process the event

    def proc():
        value = yield ev
        return (env.now, value)

    assert run_process(env, proc()) == (0.0, "early")


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def proc():
        yield 123

    p = env.process(proc())
    with pytest.raises(TypeError, match="non-event"):
        env.run(until=p)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_interrupt_thrown_into_waiting_process():
    env = Environment()

    def victim():
        try:
            yield env.timeout(10.0)
        except Interrupt as intr:
            return ("interrupted", env.now, intr.cause)
        return "completed"

    def attacker(target):
        yield env.timeout(2.0)
        target.interrupt(cause="disk failed")

    v = env.process(victim())
    env.process(attacker(v))
    assert env.run(until=v) == ("interrupted", 2.0, "disk failed")


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(0.1)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_process_survives_interrupt_and_continues():
    env = Environment()

    def victim():
        total = 0
        try:
            yield env.timeout(10.0)
            total += 10
        except Interrupt:
            pass
        yield env.timeout(1.0)
        return env.now

    def attacker(target):
        yield env.timeout(2.0)
        target.interrupt()

    v = env.process(victim())
    env.process(attacker(v))
    assert env.run(until=v) == 3.0


@pytest.mark.parametrize("make_env", [Environment, reference_env])
def test_interrupt_survivor_is_not_resumed_by_the_wait_it_abandoned(make_env):
    # Regression: the timeout the victim was pulled out of (due at 1.0)
    # fired in the middle of its next wait and resumed it a second time,
    # at 1.0 instead of 2.5.
    env = make_env()

    def victim():
        try:
            yield env.timeout(1.0)
        except Interrupt:
            pass
        yield env.timeout(2.0)
        return env.now

    def attacker(target):
        yield env.timeout(0.5)
        target.interrupt()

    v = env.process(victim())
    env.process(attacker(v))
    assert env.run(until=v) == 2.5


@pytest.mark.parametrize("make_env", [Environment, reference_env])
def test_interrupt_survivor_that_ends_at_once_has_left_its_wait(make_env):
    # The victim survives the interrupt and ends after a charge nothing
    # can overtake. It stopped waiting on the event it was pulled out of
    # when the interrupt's delivery ended, so that event's failure has
    # no observer and surfaces: the charge must not run inside the
    # delivery, where the victim would end still registered on it.
    env = make_env()
    abandoned = env.event()

    def victim():
        try:
            yield abandoned
        except Interrupt:
            pass
        yield env.timeout(0.5)

    def attacker(target):
        yield env.timeout(1.0)
        target.interrupt()
        yield env.timeout(1.0)
        abandoned.fail(ValueError("nobody waits"))

    env.process(attacker(env.process(victim())))
    with pytest.raises(ValueError, match="nobody waits"):
        env.run()


def test_a_timeout_not_yet_yielded_counts_as_scheduled():
    # A virtual source orders its steps by the ticket count it reads, and
    # a held event's collapse asks whether anything else can act first:
    # to both, a timeout made and not yet yielded is a heap entry at the
    # instant it fires.
    env = Environment()
    seen = []

    def counted():
        before = env.events_scheduled
        timer = env.timeout(1.0)
        seen.append(env.events_scheduled - before)
        yield timer

    def charged(delay):
        timer = env.timeout(1.0)
        yield env.timeout(delay)  # runs inline only if it fires first
        yield timer

    run_process(env, counted())
    for delay in (0.5, 1.0):
        before = env.events_scheduled
        run_process(env, charged(delay))
        seen.append(env.events_scheduled - before)
    # Start-up and the first timer; plus the tied second timer. The
    # completion is the next thing due when it is made: no ticket.
    assert seen == [1, 2, 3] and env.now == 3.0


def test_an_event_the_process_succeeds_and_yields_at_once_takes_no_ticket():
    # The held-event rule on a plain event, as an uncontended lock grant
    # takes it: nothing can come between, so the reference would pop it
    # next and resume this process from it.
    env = Environment()

    def worker():
        value = yield env.event().succeed("granted")
        return value, env.now

    assert run_process(env, worker()) == ("granted", 0.0)
    # The process's start-up; its end is dispatched from the hold.
    assert env.events_scheduled == 1


def test_event_succeeded_outside_any_process_is_processed():
    # No resumption ends to push it, so it goes on the heap at once.
    env = Environment()
    event = env.event().succeed("done")
    env.run()
    assert event.processed and event.value == "done"


def test_timeout_made_by_a_callback_of_a_completing_process_fires():
    # The worker completes inline, with nothing else scheduled; its
    # completion's callback runs inside that resumption and makes a
    # timeout, which must reach the heap all the same.
    env = Environment()
    fired = []

    def worker():
        yield env.timeout(1.0)

    env.process(worker()).callbacks.append(
        lambda _done: env.timeout(1.0).callbacks.append(
            lambda _timeout: fired.append(env.now)))
    env.run()
    assert fired == [2.0]


def test_interrupt_survivor_may_wait_again_on_the_same_event():
    env = Environment()
    gate = env.event()

    def victim():
        while True:
            try:
                return (yield gate), env.now
            except Interrupt:
                pass

    def attacker(target):
        yield env.timeout(0.5)
        target.interrupt()
        yield env.timeout(0.5)
        gate.succeed("open")

    v = env.process(victim())
    env.process(attacker(v))
    assert env.run(until=v) == ("open", 1.0)


def test_all_of_waits_for_slowest():
    env = Environment()

    def proc():
        events = [after(env, d, d) for d in (1.0, 3.0, 2.0)]
        values = yield AllOf(env, events)
        return (env.now, sorted(values))

    assert run_process(env, proc()) == (3.0, [1.0, 2.0, 3.0])


def test_any_of_fires_on_fastest():
    env = Environment()

    def proc():
        events = [after(env, d, d) for d in (5.0, 1.0, 3.0)]
        values = yield AnyOf(env, events)
        return (env.now, values)

    now, values = run_process(env, proc())
    assert now == 1.0
    assert 1.0 in values


def test_count_of_fires_at_kth_success():
    env = Environment()

    def proc():
        events = [after(env, d, d) for d in (1.0, 2.0, 3.0)]
        values = yield CountOf(env, events, need=2)
        return (env.now, sorted(values))

    assert run_process(env, proc()) == (2.0, [1.0, 2.0])


def test_count_of_zero_fires_immediately():
    env = Environment()

    def proc():
        events = [env.timeout(5.0)]
        yield CountOf(env, events, need=0)
        return env.now

    assert run_process(env, proc()) == 0.0


def test_count_of_fails_when_success_impossible():
    env = Environment()

    def failer():
        yield env.timeout(1.0)
        raise ValueError("replica died")

    def proc():
        events = [env.process(failer()), env.process(failer())]
        try:
            yield CountOf(env, events, need=2)
        except ValueError as exc:
            return ("failed", str(exc))
        return "succeeded"

    result = run_process(env, proc())
    assert result == ("failed", "replica died")


def test_count_of_need_exceeding_events_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        CountOf(env, [env.timeout(1.0)], need=2)


def test_count_of_tolerates_failures_below_threshold():
    """With need=1 of {fast failure, slow success}, the condition should
    still succeed when the success arrives."""
    env = Environment()

    def failer():
        yield env.timeout(1.0)
        raise ValueError("one replica died")

    def proc():
        events = [env.process(failer()), after(env, 2.0, "ok")]
        values = yield CountOf(env, events, need=1)
        return (env.now, values)

    assert run_process(env, proc()) == (2.0, ["ok"])


def test_virtual_step_goes_right_before_the_first_event_that_sorts_after_it():
    env = Environment()
    order = []

    def note(tag):
        return lambda event: order.append((env.now, tag))

    env.timeout(4.0).callbacks.append(note("later"))
    env.timeout(2.0).callbacks.append(note("pushed before the step was made"))
    HopSource(env).burst([2.0]).callbacks.append(note("the step"))
    env.timeout(2.0).callbacks.append(note("pushed after"))
    env.run()
    assert order == [(2.0, "pushed before the step was made"),
                     (2.0, "the step"), (2.0, "pushed after"), (4.0, "later")]


def test_pending_virtual_step_is_scheduled_work():
    env = Environment()
    source = HopSource(env)
    first = source.burst([1.0, 1.0])
    env.run(until=first)  # no deadlock: the heap is empty throughout
    assert env.now == 2.0 and env.events_scheduled == 0
    late = source.burst([1.0])
    env.run(until=2.5)
    assert not late.processed
    env.run(until=3.0)  # not stopped short by the empty heap
    assert late.processed and env.now == 3.0
    env.run()  # the guard is +inf: ends at once
    assert env.now == 3.0


def test_active_process_visible_during_resume():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1.0)
        seen.append(env.active_process)

    p = env.process(proc())
    env.run()
    assert seen == [p, p]
    assert env.active_process is None


def test_self_interrupt_rejected():
    env = Environment()

    def proc():
        with pytest.raises(RuntimeError):
            env.active_process.interrupt()
        yield env.timeout(0.1)

    run_process(env, proc())


def test_long_chain_of_immediate_events():
    """Thousands of zero-delay resumptions must work without recursion
    problems and without advancing the clock."""
    env = Environment()

    def proc():
        total = 0
        for _ in range(5000):
            ev = env.event()
            ev.succeed(1)
            total += yield ev
        return (env.now, total)

    assert run_process(env, proc()) == (0.0, 5000)


def test_many_processes_complete():
    env = Environment()
    done = []

    def worker(i):
        yield env.timeout(i * 0.001)
        done.append(i)

    for i in range(1000):
        env.process(worker(i))
    env.run()
    assert len(done) == 1000
    assert done == sorted(done)
