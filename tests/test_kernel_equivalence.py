"""Reference-equivalence of the kernel fast paths (property-based).

The fast kernel (a plain ``Environment()``) is only allowed to exist
because it is *observationally identical* to the reference kernel (the
same environment with a tie hook installed, which turns every fast path
off; the hook answers 0, the reference schedule): same clock values,
same resume order, same values delivered, same tie-breaking at shared
instants. This suite generates random little concurrent programs —
timeouts (including zero delays and exact-tie sums), interrupts,
resources, stores, joins, ``AllOf``/``AnyOf``/``CountOf``, lock
grants, timeouts and lock grants made and then left behind by something
else before they are yielded, hand-offs to a waiting worker followed by
each way out of the hold (every way an event the kernel holds off the
heap goes onto it, or is dispatched from the hold), three fresh events
made before the worker yields (the third pushes the oldest of the two
the kernel holds), runs of hops kept
off the heap by a toy *virtual source* (the guard protocol of ``net/ethernet.py``'s medium
ledger, without any Ethernet) and chains of steps that resume nobody
on a *quiet* one (the ledger's background daemon and the NFS cache's
churn daemon, which a held event collapses past; it leaves the kernel
after its last step, as a crashed churn daemon does, and joins it again
with the next chain) — runs each on both kernels under every form of
``run(until=...)``, and compares the full traces.

Delays are dyadic rationals so independent sums collide bit-exactly,
exercising the ``(time, priority, eid)`` tie-breaking discipline rather
than dodging it.
"""

import os
import shutil
import subprocess
import sys
from bisect import insort
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locks import FileLockTable
from repro.sim import Environment, Interrupt, Resource, Store

from conftest import reference_env

N_RESOURCES = 2
N_STORES = 2
N_LOCKS = 2
MAX_WORKERS = 4

#: Dyadic delays: 0.25 + 0.25 == 0.5 exactly, so unrelated timelines
#: tie at shared instants and ordering falls to the eid discipline.
_DELAYS = st.sampled_from((0.0, 0.125, 0.25, 0.5, 1.0))
_DELAY_LISTS = st.lists(_DELAYS, min_size=1, max_size=3)

#: What a worker does between making a timeout and yielding it: each
#: takes the timeout the fast kernel holds off the heap onto it, or (a
#: composed one) keeps it from being run inline. "signal" hands a
#: waiting worker its signal and then yields a second timeout: three
#: fresh events before the first yield.
_HELD_EXITS = st.sampled_from(
    ("put", "count", "anyof", "second", "signal", "lock", "drop"))

#: What a worker does between taking a lock grant and yielding it: the
#: same held-event rule, on a grant instead of a timeout.
_GRANT_EXITS = st.sampled_from(
    ("interrupt", "put", "count", "second", "drop"))

#: What a worker does after succeeding an event another worker waits
#: on: the hand-off is held until the run loop looks at it, unless one
#: of these pushes it first.
_SIGNAL_EXITS = st.sampled_from(
    ("nothing", "timeout", "put", "interrupt", "second"))

_INSTR = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("burst"), _DELAY_LISTS),
    st.tuples(st.just("resource"), st.integers(0, N_RESOURCES - 1), _DELAYS),
    st.tuples(st.just("put"), st.integers(0, N_STORES - 1),
              st.integers(0, 7)),
    st.tuples(st.just("get"), st.integers(0, N_STORES - 1)),
    st.tuples(st.just("allof"), _DELAY_LISTS),
    st.tuples(st.just("anyof"), _DELAY_LISTS),
    st.tuples(st.just("countof"), _DELAY_LISTS, st.integers(1, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, MAX_WORKERS - 1),
              _DELAYS),
    st.tuples(st.just("join"), st.integers(0, MAX_WORKERS - 1)),
    st.tuples(st.just("survive"), _DELAYS, _DELAYS),
    st.tuples(st.just("held"), _HELD_EXITS, _DELAYS, _DELAYS),
    st.tuples(st.just("grant"), _GRANT_EXITS,
              st.integers(0, MAX_WORKERS - 1), _DELAYS),
    st.tuples(st.just("quiet"), _DELAY_LISTS),
    st.tuples(st.just("signal"), _SIGNAL_EXITS),
)

_PROGRAM = st.lists(
    st.lists(_INSTR, min_size=1, max_size=6),
    min_size=1, max_size=MAX_WORKERS,
)


#: The three forms of ``until`` the single run loop normalises: none,
#: a number (stopped and resumed twice — the second deadline lands on
#: an instant dyadic timelines share) and an event.
_DRIVERS = ("run", "deadlines", "event")


class HopSource:
    """A toy virtual source (``Environment.add_source``): a burst is a
    chain of hops, each a pending step ``(when, c, seq)`` the heap never
    sees — ``c`` the ticket counter *read* when the step is made, where
    the reference pushes that hop's timeout — and the last hop resumes
    the waiter, so any pending step may: ``wake`` is the guard."""

    def __init__(self, env):
        self.env = env
        self.guard = self.wake = float("inf")
        self._steps = []  # (when, c, seq, delays still to go, waiter)
        self._seq = env.add_source(self)

    @property
    def head(self):
        return self._steps[0][:3] if self._steps else (self.guard, 0, 0)

    def _pend(self, when, rest, waiter):
        insort(self._steps, (when, self.env.events_scheduled,
                             next(self._seq), rest, waiter))

    def _reguard(self):
        self.guard = self.wake = (self._steps[0][0] if self._steps
                                  else float("inf"))
        self.env.reguard(self)

    def burst(self, delays):
        """An event that fires when the last of ``delays`` is over."""
        waiter = self.env.event()
        self._pend(self.env.now + delays[0], delays[1:], waiter)
        self._reguard()
        return waiter

    def abandon(self, waiter):
        """The waiter left mid-burst. Its pending hop stays, as the
        reference's timeout stays on the heap: it resumes nobody, but
        it still moves the clock when it comes due."""
        self._steps = [s[:3] + ((), None) if s[4] is waiter else s
                       for s in self._steps]

    def advance(self, bound):
        steps = self._steps
        while steps and steps[0][:3] < bound:
            when, _c, _seq, rest, waiter = steps.pop(0)
            if waiter is None:
                self.env.finish_inline(self.env.event(), None, when)
                continue
            if not rest:
                self._reguard()
                self.env.finish_inline(waiter, None, when)
                return True
            # The same left fold the reference's timeouts walk.
            self._pend(when + rest[0], rest[1:], waiter)
        self._reguard()
        return False


class QuietSource:
    """A toy virtual source whose steps resume nobody, like the medium
    ledger's background daemon and the NFS cache's churn daemon:
    ``wake`` is +inf, so a held event collapses past its steps, which
    the kernel has it perform first.

    A chain is the reference's detached process that sleeps ``delays``
    one after another and notes each wake-up in the trace: a start-up
    step where the process's first dispatch stands, then one step per
    sleep. Each moves the clock, as the reference's dispatch does, so a
    drained ``run()`` ends where the reference's does. Like a crashed
    churn daemon's, the source leaves the kernel after its last step,
    and joins it again with the next chain."""

    wake = float("inf")

    def __init__(self, env, trace):
        self.env = env
        self.guard = float("inf")
        self._trace = trace
        self._steps = []  # (when, c, seq, delays still to go, tag, hop)
        self._seq = None  # the kernel's creation counter while joined

    @property
    def head(self):
        return self._steps[0][:3] if self._steps else (self.guard, 0, 0)

    def _pend(self, when, rest, tag, hop):
        insort(self._steps, (when, self.env.events_scheduled,
                             next(self._seq), rest, tag, hop))

    def chain(self, delays, tag):
        if self._seq is None:
            self._seq = self.env.add_source(self)
        self._pend(self.env.now, delays, tag, -1)
        self.guard = self._steps[0][0]
        self.env.reguard(self)

    def advance(self, bound):
        steps = self._steps
        while steps and steps[0][:3] < bound:
            when, _c, _seq, rest, tag, hop = steps.pop(0)
            self.env.finish_inline(self.env.event(), None, when)
            if hop >= 0:
                self._trace.append((when,) + tag + ("quiet", hop))
            if rest:
                self._pend(when + rest[0], rest[1:], tag, hop + 1)
        if steps:
            self.guard = steps[0][0]
            self.env.reguard(self)
        else:
            self.guard = float("inf")
            self._seq = None
            self.env.remove_source(self)
        return False


def _run_program(program, env, driver):
    """Execute ``program`` on ``env`` under ``driver``; return the trace."""
    resources = [Resource(env) for _ in range(N_RESOURCES)]
    stores = [Store(env) for _ in range(N_STORES)]
    locks = FileLockTable(env)
    # Two hop sources, so their steps have to interleave in creation
    # order, and a quiet one beside them.
    hops = None if env.is_reference else [HopSource(env), HopSource(env)]
    trace = []
    quiet = None if env.is_reference else QuietSource(env, trace)
    signals = []  # (event, the worker waiting on it), oldest first
    procs = {}

    def chain(tag, delays):
        for hop, delay in enumerate(delays):
            yield env.timeout(delay)
            trace.append((env.now,) + tag + ("quiet", hop))

    def worker(wid, instrs):
        for step, instr in enumerate(instrs):
            tag = instr[0]
            try:
                if tag == "timeout":
                    yield env.timeout(instr[1])
                elif tag == "burst":
                    # The Ethernet's obligation: the reference pays one
                    # heap event per hop; on the fast kernel the hops
                    # are a virtual source's steps and the worker waits
                    # once, leaving the source if it is interrupted.
                    if hops is None:
                        for delay in instr[1]:
                            yield env.timeout(delay)
                    else:
                        source = hops[wid % 2]
                        over = source.burst(instr[1])
                        try:
                            yield over
                        finally:
                            if not over.processed:
                                source.abandon(over)
                elif tag == "quiet":
                    # A detached sleeper nobody waits for: a process on
                    # the reference, a quiet source's chain here.
                    if quiet is None:
                        env.process(chain((wid, step), instr[1]))
                    else:
                        quiet.chain(instr[1], (wid, step))
                elif tag == "resource":
                    res = resources[instr[1]]
                    req = res.request()
                    yield req
                    trace.append((env.now, wid, step, "granted"))
                    yield env.timeout(instr[2])
                    res.release(req)
                elif tag == "put":
                    stores[instr[1]].put((wid, step, instr[2]))
                elif tag == "get":
                    value = yield stores[instr[1]].get()
                    trace.append((env.now, wid, step, "got", value))
                elif tag == "allof":
                    yield env.all_of([env.timeout(d) for d in instr[1]])
                elif tag == "anyof":
                    yield env.any_of([env.timeout(d) for d in instr[1]])
                elif tag == "countof":
                    events = [env.timeout(d) for d in instr[1]]
                    yield env.count_of(events, min(instr[2], len(events)))
                elif tag == "interrupt":
                    yield env.timeout(instr[2])
                    target = procs.get(instr[1])
                    if (target is not None and instr[1] != wid
                            and target.is_alive):
                        target.interrupt((wid, step))
                        trace.append((env.now, wid, step, "sent-interrupt"))
                elif tag == "join":
                    # A completion is one heap event on both kernels;
                    # several joiners of one worker are several callbacks
                    # of it: the only way the heap check alone (without
                    # the solo flag) gets a collapse wrong.
                    target = procs.get(instr[1])
                    if target is not None and instr[1] != wid:
                        yield target
                elif tag == "survive":
                    # A process that outlives an interrupt: the wait it
                    # was pulled out of must not cut its next one short.
                    try:
                        yield env.timeout(instr[1])
                    except Interrupt as exc:
                        trace.append((env.now, wid, step, "survived",
                                      exc.cause))
                    resumed = env.now
                    yield env.timeout(instr[2])
                    trace.append((env.now, wid, step, "slept",
                                  env.now - resumed, instr[2]))
                elif tag == "held":
                    way, delay, other = instr[1:]
                    timer = env.timeout(delay)
                    if way == "put":
                        stores[0].put((wid, step, "held"))
                    elif way == "count":
                        env.events_scheduled
                    elif way == "anyof":
                        # Composed, so yielded with a callback on it.
                        either = env.any_of([timer, env.event()])
                        yield timer
                        yield either
                    elif way == "second":
                        yield env.timeout(other)
                    elif way == "signal":
                        if signals:
                            signal, _waiter = signals.pop(0)
                            signal.succeed((wid, step, "held"))
                        yield env.timeout(other)
                    elif way == "lock":
                        with locks.writing(wid % N_LOCKS) as lock:
                            yield lock.grant
                            trace.append((env.now, wid, step, "locked"))
                            yield env.timeout(other)
                    if way != "drop":
                        yield timer
                elif tag == "signal":
                    # A rendezvous: the first worker here waits; the next
                    # succeeds its event — a hand-off to a process that
                    # already waits — and then leaves by ``way``.
                    if not signals:
                        signal = env.event()
                        signals.append((signal, wid))
                        value = yield signal
                        trace.append((env.now, wid, step, "signalled", value))
                    else:
                        signal, waiter = signals.pop(0)
                        signal.succeed((wid, step))
                        way = instr[1]
                        if way == "timeout":
                            yield env.timeout(0.0)
                        elif way == "put":
                            stores[0].put((wid, step, "signal"))
                        elif way == "interrupt":
                            # At priority 0 it reaches the waiter first.
                            target = procs[waiter]
                            if target.is_alive:
                                target.interrupt((wid, step))
                                trace.append(
                                    (env.now, wid, step, "sent-interrupt"))
                        elif way == "second" and signals:
                            signal, _waiter = signals.pop(0)
                            signal.succeed((wid, step, "second"))
                elif tag == "grant":
                    way, other, delay = instr[1:]
                    with locks.writing(wid % N_LOCKS) as lock:
                        if way == "interrupt":
                            target = procs.get(other)
                            if (target is not None and other != wid
                                    and target.is_alive):
                                target.interrupt((wid, step))
                                trace.append(
                                    (env.now, wid, step, "sent-interrupt"))
                        elif way == "put":
                            stores[0].put((wid, step, "grant"))
                        elif way == "count":
                            env.events_scheduled
                        elif way == "second":
                            yield env.timeout(delay)
                        if way != "drop":
                            yield lock.grant
                            trace.append((env.now, wid, step, "locked"))
                            yield env.timeout(delay)
                trace.append((env.now, wid, step, "done", tag))
            except Interrupt as exc:
                trace.append((env.now, wid, step, "interrupted", exc.cause))
        return wid

    for wid, instrs in enumerate(program):
        procs[wid] = env.process(worker(wid, instrs))
    try:
        if driver == "deadlines":
            for deadline in (0.375, 1.0):
                env.run(until=deadline)
                trace.append(("stopped", env.now))
        elif driver == "event":
            trace.append(("returned", env.run(until=procs[0]), env.now))
        env.run()
        trace.append(("end", env.now))
    except BaseException as exc:  # surfaced crash: must match bit-for-bit
        trace.append(("crash", env.now, type(exc).__name__, str(exc)))
    for entry in trace:
        if entry[3:4] == ("slept",):
            assert entry[4] == entry[5], entry
    return trace


def _assert_matches_reference(program):
    for driver in _DRIVERS:
        assert _run_program(program, Environment(), driver) == _run_program(
            program, reference_env(), driver), driver


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_PROGRAM)
def test_fast_kernel_matches_reference(program):
    _assert_matches_reference(program)


@pytest.mark.explore
@settings(max_examples=10_000, deadline=None)
@given(_PROGRAM)
def test_fast_kernel_matches_reference_on_a_larger_budget(program):
    _assert_matches_reference(program)


def test_contended_resource_with_ties_matches_reference():
    # A hand-written worst case: four workers with identical dyadic
    # timelines fighting over one resource, so every grant decision is
    # an exact-tie broken by insertion order.
    program = [
        [("timeout", 0.25), ("resource", 0, 0.25), ("put", 0, w),
         ("resource", 0, 0.0), ("get", 0)]
        for w in range(4)
    ]
    _assert_matches_reference(program)


def test_interrupt_storm_matches_reference():
    program = [
        [("resource", 0, 1.0), ("timeout", 0.5)],
        [("timeout", 0.125), ("interrupt", 0, 0.125), ("timeout", 0.0)],
        [("interrupt", 1, 0.25), ("resource", 0, 0.125)],
    ]
    _assert_matches_reference(program)


def test_interrupt_survivor_matches_reference():
    # Worker 0 catches the interrupt at 0.125 and sleeps on: the 0.5 s
    # timeout it abandoned fires in the middle of the next sleep.
    _assert_matches_reference([
        [("survive", 0.5, 1.0), ("timeout", 0.25)],
        [("interrupt", 0, 0.125)],
    ])


def test_nothing_collapses_once_the_until_event_has_fired():
    # Found by the Ethernet ledger's drift guard. run(until=worker 0)
    # ends with the dispatch in which worker 0's completion fires; the
    # reference runs worker 1 in it (a callback of that event) but not
    # worker 2, whose turn is one heap hop later. The fast kernel once
    # finished worker 1 synchronously and ran worker 2 as well, so run()'s
    # caller saw the world one step ahead of the reference.
    _assert_matches_reference([
        [("timeout", 0.0)],
        [("join", 0)],
        [("join", 1), ("timeout", 0.0), ("burst", [0.25])],
    ])


def test_zero_delay_timeout_yields_to_a_same_instant_event():
    # Worker 1's timeout shares worker 0's instant and is older, so the
    # reference runs it before worker 0's zero timeout: running that one
    # inline is legal only when the next heap entry is *strictly* later.
    _assert_matches_reference([
        [("timeout", 0.25), ("timeout", 0.0), ("burst", [0.0, 0.0])],
        [("timeout", 0.25)],
    ])


def test_held_timeout_goes_on_the_heap_ahead_of_what_is_scheduled_next():
    # Worker 1's timeout took its ticket before its put woke worker 0.
    _assert_matches_reference([
        [("get", 0)],
        [("held", "put", 0.0, 0.0)],
    ])


def test_an_abandoned_hop_still_moves_the_clock():
    # Found at the explore budget. Worker 3 is interrupted in its burst;
    # the reference's pending hop timeout still fires at 0.125, so a
    # drained run() ends there. On the fast kernel the hop is the last
    # step of its source and resumes nobody: the multi-source merge used
    # to spin once both sources were empty.
    _assert_matches_reference([
        [("timeout", 0.0)],
        [("timeout", 0.0)],
        [("interrupt", 3, 0.0)],
        [("burst", [0.125])],
    ])


def test_grant_yielded_after_an_interrupt_matches_reference():
    # Worker 0 takes an uncontended write grant and interrupts worker 1
    # before yielding it. The reference pushed the grant first, and the
    # interrupt, at priority 0, is still delivered ahead of it: worker 1
    # hears of it before worker 0 holds the lock.
    _assert_matches_reference([
        [("timeout", 0.125), ("grant", "interrupt", 1, 0.0)],
        [("timeout", 0.25)],
    ])


def _tickets_beside_the_reference(program, driver="run"):
    """Run ``program`` on both kernels; return the fast kernel's trace,
    once it is known to be the reference's, and the tickets it took."""
    env = Environment()
    trace = _run_program(program, env, driver)
    assert trace == _run_program(program, reference_env(), driver)
    return trace, env.events_scheduled


def test_quiet_step_at_the_collapse_instant_made_before_the_hold_goes_first():
    # The chain's start-up is performed ahead of the zero charge's
    # collapse and makes its sleep to 0.25 then, before worker 0's
    # charge to 0.25 is made: the reference dispatches that sleep first,
    # so the collapse performs it before the worker resumes.
    program = [[("quiet", [0.25]), ("timeout", 0.0), ("timeout", 0.25)]]
    trace, tickets = _tickets_beside_the_reference(program)
    assert trace == [
        (0.0, 0, 0, "done", "quiet"), (0.0, 0, 1, "done", "timeout"),
        (0.25, 0, 0, "quiet", 0), (0.25, 0, 2, "done", "timeout"),
        ("end", 0.25)]
    # The worker's start-up: both charges collapsed, and its completion
    # was dispatched from the hold.
    assert tickets == 1


def test_quiet_step_made_during_the_collapse_stays_pending():
    # Worker 0's charge to 0.25 is made before the chain has started;
    # the collapse performs the start-up, whose sleep to 0.25 is newer
    # than the charge: the worker resumes first, as on the reference.
    program = [[("quiet", [0.25]), ("timeout", 0.25)]]
    trace, tickets = _tickets_beside_the_reference(program)
    assert trace == [
        (0.0, 0, 0, "done", "quiet"), (0.25, 0, 1, "done", "timeout"),
        (0.25, 0, 0, "quiet", 0), ("end", 0.25)]
    assert tickets == 1


def test_collapse_waits_for_the_other_callbacks_of_the_same_event():
    # Workers 1 and 2 both join worker 0: its completion carries two
    # callbacks, and while the first runs the second is pending at this
    # instant without being on the heap.
    _assert_matches_reference([
        [("timeout", 0.25)],
        [("join", 0), ("timeout", 0.0), ("burst", [0.0, 0.125])],
        [("join", 0), ("timeout", 0.0)],
    ])


def test_a_put_to_a_waiting_getter_takes_no_ticket_on_an_idle_kernel():
    # Worker 1's put succeeds the event worker 0 waits on; worker 1 then
    # waits for good, and nothing else is due: the run loop dispatches
    # the hand-off from the hold, then worker 0's completion.
    trace, tickets = _tickets_beside_the_reference([
        [("get", 0)],
        [("put", 0, 7), ("get", 1)],
    ])
    assert trace == [(0.0, 1, 0, "done", "put"), (0.0, 0, 0, "got", (1, 0, 7)),
                     (0.0, 0, 0, "done", "get"), ("end", 0.0)]
    assert tickets == 2  # the two start-ups


def test_a_same_instant_heap_entry_pushed_before_the_hand_off_goes_first():
    # Worker 2's timeout to 0.25 is on the heap when worker 1's put,
    # at 0.25, hands worker 0 its item: worker 2 resumes first.
    trace, tickets = _tickets_beside_the_reference([
        [("get", 0)],
        [("timeout", 0.25), ("put", 0, 1), ("get", 1)],
        [("timeout", 0.25), ("get", 1)],
    ])
    assert trace[1:4] == [(0.25, 1, 1, "done", "put"),
                          (0.25, 2, 0, "done", "timeout"),
                          (0.25, 0, 0, "got", (1, 1, 1))]
    # Start-ups, both timeouts, the hand-off; worker 0's completion,
    # alone at the end, is dispatched from the hold.
    assert tickets == 6


def test_an_interrupt_scheduled_after_a_hand_off_goes_first():
    # Worker 1 hands worker 0 a signal, then interrupts it: the hand-off
    # is pushed first, with its ticket, yet the interrupt (priority 0)
    # reaches worker 0 before it. At 0.5 worker 1 hands worker 0 a
    # second signal and waits for good: that one takes no ticket.
    trace, tickets = _tickets_beside_the_reference([
        [("signal", "nothing"), ("timeout", 0.25), ("signal", "nothing")],
        [("signal", "interrupt"), ("timeout", 0.5), ("signal", "nothing"),
         ("get", 1)],
    ])
    assert trace[:3] == [(0.0, 1, 0, "sent-interrupt"),
                         (0.0, 1, 0, "done", "signal"),
                         (0.0, 0, 0, "interrupted", (1, 0))]
    assert trace[-4:-1] == [(0.5, 1, 2, "done", "signal"),
                            (0.5, 0, 2, "signalled", (1, 2)),
                            (0.5, 0, 2, "done", "signal")]
    # Start-ups, the first hand-off, the interrupt, both timeouts.
    assert tickets == 6


def test_a_virtual_step_at_the_hand_off_instant_blocks_it_unless_quiet():
    # Worker 2 makes a step due at 0.25 at 0.125, after worker 1's timeout
    # to 0.25 took its ticket and before worker 1's put at 0.25 hands
    # worker 0 its item. The reference dispatches the step first. A step
    # that can wake a process keeps the hand-off on the heap; a quiet
    # one is performed in place and the hand-off dispatched from the
    # hold.
    tickets = {}
    for step, last in (("waking", ("burst", [0.125])),
                       ("quiet", ("quiet", [0.125]))):
        trace, tickets[step] = _tickets_beside_the_reference([
            [("get", 0)],
            [("timeout", 0.25), ("put", 0, 1), ("get", 1)],
            [("timeout", 0.125), last],
        ])
        assert trace[-4:-1] == [
            (0.25, 2, 1) + (("done", "burst") if step == "waking"
                            else ("quiet", 0)),
            (0.25, 0, 0, "got", (1, 1, 1)), (0.25, 0, 0, "done", "get")]
    # Both: start-ups and three timeouts. Waking: the hand-off and the
    # completions of workers 2 and 0 too.
    assert tickets == {"waking": 7, "quiet": 4}


def test_a_hand_off_made_by_the_second_callback_of_a_dispatch():
    # Workers 1 and 2 join worker 0, whose completion is dispatched from
    # the hold with both callbacks. The first hands worker 3 an item;
    # the second, while that hand-off is held, hands worker 4 a signal
    # (the hand-off is pushed first) and interrupts it (pushed next).
    trace, tickets = _tickets_beside_the_reference([
        [("timeout", 0.25)],
        [("join", 0), ("put", 0, 1), ("get", 1)],
        [("join", 0), ("signal", "interrupt")],
        [("get", 0)],
        [("signal", "nothing")],
    ])
    assert trace[1:] == [(0.25, 1, 0, "done", "join"),
                         (0.25, 1, 1, "done", "put"),
                         (0.25, 2, 0, "done", "join"),
                         (0.25, 2, 1, "sent-interrupt"),
                         (0.25, 2, 1, "done", "signal"),
                         (0.25, 4, 0, "interrupted", (2, 1)),
                         (0.25, 3, 0, "got", (1, 1, 1)),
                         (0.25, 3, 0, "done", "get"),
                         ("end", 0.25)]
    assert tickets == 12


def test_a_hand_off_held_when_run_until_event_returns_is_pushed():
    # run(until=worker 0) ends with the dispatch of worker 0's
    # completion, in which worker 1 hands worker 2 its item. The loop
    # does not look at the hold again: run() pushes the hand-off on the
    # way out, with its ticket, and the next run() dispatches it.
    trace, tickets = _tickets_beside_the_reference([
        [("timeout", 0.25)],
        [("join", 0), ("put", 0, 1), ("get", 1)],
        [("get", 0)],
    ], "event")
    assert trace[2:5] == [(0.25, 1, 1, "done", "put"),
                          ("returned", 0, 0.25),
                          (0.25, 2, 0, "got", (1, 1, 1))]
    # Start-ups, the timeout, the hand-off; worker 0's completion (the
    # until event) and worker 2's are dispatched from the hold.
    assert tickets == 5


def test_a_hand_off_then_a_satisfied_get_leave_the_hold_in_order():
    # Worker 1 hands worker 0 its signal, then gets the item it put
    # itself: the hand-off and the satisfied get are both held, one in
    # each slot, and the run loop dispatches them from the hold in the
    # reference's order, the hand-off first.
    trace, tickets = _tickets_beside_the_reference([
        [("signal", "nothing")],
        [("put", 0, 7), ("signal", "nothing"), ("get", 0)],
    ])
    assert trace[1:5] == [(0.0, 1, 1, "done", "signal"),
                          (0.0, 0, 0, "signalled", (1, 1)),
                          (0.0, 0, 0, "done", "signal"),
                          (0.0, 1, 2, "got", (1, 0, 7))]
    assert tickets == 2  # the start-ups


def test_a_charge_tied_with_the_older_held_event_does_not_collapse():
    # Worker 1 hands worker 0 its signal and yields a zero charge: the
    # charge would collapse, but the hand-off in the older slot fires at
    # its instant and its ticket is older, so worker 0 runs first.
    # Nothing is pushed: the run loop dispatches both from the hold.
    trace, tickets = _tickets_beside_the_reference([
        [("signal", "nothing")],
        [("signal", "timeout")],
    ])
    assert trace == [(0.0, 0, 0, "signalled", (1, 0)),
                     (0.0, 0, 0, "done", "signal"),
                     (0.0, 1, 0, "done", "signal"), ("end", 0.0)]
    assert tickets == 2  # the start-ups


def test_an_older_held_event_tied_with_a_heap_entry_goes_after_it():
    # At 0.25 worker 1 hands worker 0 its signal and yields a zero
    # charge; worker 2's timeout to 0.25 is on the heap with an older
    # ticket. The run loop pushes both held events, oldest first, and
    # worker 2 resumes before the hand-off, which goes before the charge.
    trace, tickets = _tickets_beside_the_reference([
        [("signal", "nothing")],
        [("timeout", 0.25), ("signal", "timeout")],
        [("timeout", 0.25)],
    ])
    assert trace[1:5] == [(0.25, 2, 0, "done", "timeout"),
                          (0.25, 0, 0, "signalled", (1, 1)),
                          (0.25, 0, 0, "done", "signal"),
                          (0.25, 1, 1, "done", "signal")]
    # Start-ups, both timeouts, the hand-off, the charge and the three
    # completions, each made while a heap entry was due at its instant.
    assert tickets == 10


def test_a_third_fresh_event_pushes_the_oldest_with_its_ticket():
    # Worker 1 makes a timer to 0.5, hands worker 0 its signal and
    # yields a zero charge: the third fresh event pushes the timer, with
    # the ticket it took when made. The hand-off and the charge stay
    # held and are dispatched from the hold, the hand-off first.
    trace, tickets = _tickets_beside_the_reference([
        [("signal", "nothing")],
        [("held", "signal", 0.5, 0.0)],
    ])
    assert trace == [(0.0, 0, 0, "signalled", (1, 0, "held")),
                     (0.0, 0, 0, "done", "signal"),
                     (0.5, 1, 0, "done", "held"), ("end", 0.5)]
    assert tickets == 3  # the start-ups and the timer


def test_a_held_any_of_timer_past_run_until_t_waits_for_it():
    # Worker 0's timer to 1.0 is composed into an any_of, so it is held
    # with a callback on it when worker 0 waits. run(until=0.375) stops
    # before it; it fires in run(until=1.0).
    trace, tickets = _tickets_beside_the_reference(
        [[("anyof", [1.0])]], "deadlines")
    assert trace == [("stopped", 0.375), (1.0, 0, 0, "done", "anyof"),
                     ("stopped", 1.0), ("end", 1.0)]
    assert tickets == 3  # start-up, the timer, the any_of


def test_of_two_sources_only_the_one_due_before_the_bound_advances():
    # Worker 0's burst keeps a hop source pending until 1.0; worker 1's
    # chain makes a quiet step at 0.25 and its charge to 0.5 collapses
    # past it: of the two sources with a step pending only the quiet one
    # has one due before the collapse's end, and it performs it alone.
    trace, tickets = _tickets_beside_the_reference([
        [("burst", [1.0])],
        [("quiet", [0.25]), ("timeout", 0.5)],
    ])
    assert trace == [(0.0, 1, 0, "done", "quiet"), (0.25, 1, 0, "quiet", 0),
                     (0.5, 1, 1, "done", "timeout"),
                     (1.0, 0, 0, "done", "burst"), ("end", 1.0)]
    assert tickets == 2  # the start-ups


@pytest.mark.parametrize("hop,beside,quiet_first", [
    ([("burst", [0.25])], [], False),
    ([("timeout", 0.125), ("burst", [0.125])], [], True),
    ([("burst", [0.125, 0.125])], [], True),
    ([("burst", [0.125, 0.125])], [[("timeout", 0.25)]], True),
], ids=["hop_older", "hop_newer", "hop_newer_by_its_chain",
        "hop_newer_by_its_chain_beside_a_heap_entry"])
def test_steps_of_two_sources_due_at_one_instant_go_in_creation_order(
        hop, beside, quiet_first):
    # Worker 0's chain makes its step to 0.25 when its start-up is
    # performed, after worker 1 started. Worker 1's hop to 0.25 is made
    # at its start (older: it goes first), at 0.125, or at 0.125 by the
    # hop before it (newer: second, though its source was due first),
    # also when a heap entry at 0.25 bounds the merge: the hop source is
    # due first, and must stop before the quiet step.
    trace, _tickets = _tickets_beside_the_reference(
        [[("quiet", [0.25])], hop] + beside)
    quiet, burst = ((0.25, 0, 0, "quiet", 0),
                    (0.25, 1, len(hop) - 1, "done", "burst"))
    at = trace.index(quiet)
    assert trace[at - 1 if not quiet_first else at + 1] == burst


def test_a_source_leaves_the_kernel_after_its_last_step():
    # The quiet chain's last step leaves the source with nothing pending:
    # it leaves the kernel, still moving the clock of the drained run,
    # and joins it again with worker 1's chain.
    trace, tickets = _tickets_beside_the_reference([
        [("quiet", [0.25])],
        [("timeout", 0.5), ("quiet", [0.125])],
    ])
    assert trace == [(0.0, 0, 0, "done", "quiet"), (0.25, 0, 0, "quiet", 0),
                     (0.5, 1, 0, "done", "timeout"),
                     (0.5, 1, 1, "done", "quiet"), (0.625, 1, 1, "quiet", 0),
                     ("end", 0.625)]
    # The start-ups, worker 0's completion and worker 1's charge, both
    # made while the other start-up was pending at 0.
    assert tickets == 4
    env = Environment()
    quiet = QuietSource(env, [])
    quiet.chain([0.25], ())
    quiet.chain([0.125, 0.5], ())
    assert env._sources == [quiet]
    env.run(until=0.5)
    assert env._sources == [quiet]
    env.run()
    assert env._sources == [] and env.now == 0.625
    # Beside a second source, within one merge: the chain's steps come
    # first and its source leaves, then the hop source alone performs
    # the rest.
    env, steps = Environment(), []
    hop, quiet = HopSource(env), QuietSource(env, steps)
    over = hop.burst([1.0])
    quiet.chain([0.25], ())
    env.run(until=over)
    assert (steps, env.now, env._sources) == ([(0.25, "quiet", 0)], 1.0,
                                              [hop])


def test_a_charge_refused_beside_a_pending_callback_waits_in_the_hold():
    # Workers 1 and 2 join worker 0. Worker 1, the first callback of its
    # completion, makes a charge to 0.375 that _clear refuses while
    # worker 2's callback is pending; worker 2 then waits for good, and
    # the run loop dispatches the charge from the hold.
    trace, tickets = _tickets_beside_the_reference([
        [("timeout", 0.125)],
        [("join", 0), ("timeout", 0.25)],
        [("join", 0), ("get", 0)],
    ])
    assert trace == [(0.125, 0, 0, "done", "timeout"),
                     (0.125, 1, 0, "done", "join"),
                     (0.125, 2, 0, "done", "join"),
                     (0.375, 1, 1, "done", "timeout"), ("end", 0.375)]
    # The start-ups and worker 0's charge, refused beside the pending
    # start-ups; the rest from the hold.
    assert tickets == 4


def test_a_charge_refused_with_nothing_else_pending_is_asked_about_once(
        monkeypatch):
    # Each worker's charge is refused by a heap entry at or before its
    # end and pushed where _clear refused it: the run loop does not ask
    # again (it asks only of the two completions, which it dispatches
    # from the hold).
    asked = []
    clear = Environment._clear

    def counted(env, end):
        asked.append(end)
        return clear(env, end)

    monkeypatch.setattr(Environment, "_clear", counted)
    trace, tickets = _tickets_beside_the_reference(
        [[("timeout", 0.25)], [("timeout", 0.5)]])
    assert trace == [(0.25, 0, 0, "done", "timeout"),
                     (0.5, 1, 0, "done", "timeout"), ("end", 0.5)]
    assert tickets == 4
    assert asked == [0.25, 0.5, 0.25, 0.5]


#: The hold's committed mutants (DESIGN.md §11a): name -> (the text in
#: ``sim/core.py``, its mutation, the tier-1 test that must kill it).
#: Each plants one wrong order between the two held events.
_FLUSH = """\
        prev = self._prev
        if prev is not None:
            self._prev = None
            self._eid += 1
            heappush(self._heap, (self._prev_at, 1, self._eid, prev))
        held = self._held
        self._held = None
        self._eid += 1
        heappush(self._heap, (self._held_at, 1, self._eid, held))
"""
HOLD_MUTANTS = {
    # A held event collapses though the older one fires at its instant.
    "collapse-ties-with-the-older-event": (
        "if prev is None or env._prev_at > end:",
        "if prev is None or env._prev_at >= end:",
        "test_contended_resource_with_ties_matches_reference",
    ),
    # The run loop dispatches the newer of two tied held events first.
    "loop-takes-the-newer-on-a-tie": (
        "if prev is not None and self._prev_at <= when:",
        "if prev is not None and self._prev_at < when:",
        "test_held_timeout_goes_on_the_heap_ahead_of_what_is_scheduled_next",
    ),
    # A push of both held events gives the newer the older ticket.
    "flush-pushes-the-newer-first": (
        _FLUSH,
        _FLUSH[_FLUSH.index("        held"):] + _FLUSH[:_FLUSH.index(
            "        held")],
        "test_an_older_held_event_tied_with_a_heap_entry_goes_after_it",
    ),
}


@pytest.mark.parametrize("name", sorted(HOLD_MUTANTS))
def test_committed_hold_mutant_is_killed_by_its_test(name, tmp_path):
    needle, mutation, killer = HOLD_MUTANTS[name]
    src = Path(__file__).resolve().parents[1] / "src"
    core = src / "repro" / "sim" / "core.py"
    source = core.read_text()
    assert source.count(needle) == 1, f"{name}: mutation target moved"
    shutil.copytree(src / "repro", tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "repro" / "sim" / "core.py").write_text(
        source.replace(needle, mutation))
    test = f"{Path(__file__).name}::{killer}"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=Path(__file__).parent, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path)}, timeout=300)
    assert done.returncode == 1 and f"FAILED {test}" in done.stdout, (
        done.stdout + done.stderr)
