"""Reference-equivalence of the kernel fast paths (property-based).

The fast kernel (a plain ``Environment()``) is only allowed to exist
because it is *observationally identical* to the reference kernel (the
same environment with a tie hook installed, which turns every fast path
off; the hook answers 0, the reference schedule): same clock values,
same resume order, same values delivered, same tie-breaking at shared
instants. This suite generates random little concurrent programs —
timeouts (including zero delays and exact-tie sums), interrupts,
resources, stores, joins, ``AllOf``/``AnyOf``/``CountOf``, lock
grants, timeouts made and then left behind by something else before
they are yielded (every way a timeout the kernel holds off the heap
goes onto it) and runs of hops kept off the heap by a toy *virtual
source* (the guard protocol of ``net/ethernet.py``'s medium ledger,
without any Ethernet) — runs each on both kernels under every form of
``run(until=...)``, and compares the full traces.

Programs follow the kernel's documented fast-path obligation: a
``Resource.request()`` is yielded immediately after it is created (the
inline-grant optimization assumes no side effects are interleaved
between the request and the wait; see ``sim.core``).

Delays are dyadic rationals so independent sums collide bit-exactly,
exercising the ``(time, priority, eid)`` tie-breaking discipline rather
than dodging it.
"""

from bisect import insort

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
#: composed one) keeps it from being run inline.
_HELD_EXITS = st.sampled_from(
    ("put", "count", "anyof", "second", "lock", "drop"))

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
    the waiter."""

    def __init__(self, env):
        self.env = env
        self.guard = float("inf")
        self._steps = []  # (when, c, seq, delays still to go, waiter)
        self._seq = env.add_source(self)

    @property
    def head(self):
        return self._steps[0][:3] if self._steps else (self.guard, 0, 0)

    def _pend(self, when, rest, waiter):
        insort(self._steps, (when, self.env.events_scheduled,
                             next(self._seq), rest, waiter))

    def _reguard(self):
        self.guard = self._steps[0][0] if self._steps else float("inf")
        self.env.reguard()

    def burst(self, delays):
        """An event that fires when the last of ``delays`` is over."""
        waiter = self.env.event()
        self._pend(self.env.now + delays[0], delays[1:], waiter)
        self._reguard()
        return waiter

    def abandon(self, waiter):
        self._steps = [s for s in self._steps if s[4] is not waiter]
        self._reguard()

    def advance(self, bound):
        steps = self._steps
        while steps and steps[0][:3] < bound:
            when, _c, _seq, rest, waiter = steps.pop(0)
            if not rest:
                self._reguard()
                self.env.finish_inline(waiter, None, when)
                return True
            # The same left fold the reference's timeouts walk.
            self._pend(when + rest[0], rest[1:], waiter)
        self._reguard()
        return False


def _run_program(program, env, driver):
    """Execute ``program`` on ``env`` under ``driver``; return the trace."""
    resources = [Resource(env) for _ in range(N_RESOURCES)]
    stores = [Store(env) for _ in range(N_STORES)]
    locks = FileLockTable(env)
    # Two sources, so their steps have to interleave in creation order.
    hops = None if env.is_reference else [HopSource(env), HopSource(env)]
    trace = []
    procs = {}

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
                    # Several joiners of one worker are several callbacks
                    # of one event: the only way the heap check alone
                    # (without the solo flag) gets a collapse wrong.
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
                    elif way == "lock":
                        with locks.writing(wid % N_LOCKS) as lock:
                            yield lock.grant
                            trace.append((env.now, wid, step, "locked"))
                            yield env.timeout(other)
                    if way != "drop":
                        yield timer
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
    # worker 2, whose turn is one heap hop later. The fast kernel used to
    # finish worker 1 synchronously and run worker 2 as well, so run()'s
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


def test_collapse_waits_for_the_other_callbacks_of_the_same_event():
    # Workers 1 and 2 both join worker 0: its completion carries two
    # callbacks, and while the first runs the second is pending at this
    # instant without being on the heap.
    _assert_matches_reference([
        [("timeout", 0.25)],
        [("join", 0), ("timeout", 0.0), ("burst", [0.0, 0.125])],
        [("join", 0), ("timeout", 0.0)],
    ])
