"""A small discrete-event simulation kernel.

This is the substrate on which every timed component of the reproduction
runs: the simulated disks, the shared Ethernet, the RPC layer, and the
servers themselves are all *processes* — Python generators that ``yield``
events (usually :class:`Timeout` or resource requests) and are resumed by
the :class:`Environment` when those events fire.

The design follows the classic event/process world view (as popularized
by SimPy), implemented from scratch so the reproduction has no external
dependencies:

* :class:`Event` — a one-shot occurrence with a success value or failure
  exception, and a callback list.
* :class:`Timeout` — an event that fires after a simulated delay.
* :class:`Process` — wraps a generator; each yielded event suspends the
  process until the event fires. The generator's ``return`` value becomes
  the process's event value, so processes compose: ``result = yield
  env.process(sub())``.
* :class:`Environment` — the scheduler: a time-ordered event heap and the
  simulated clock.

Determinism: ties in the heap are broken by insertion order, so a given
program always replays identically. No wall-clock time or global RNG is
consulted anywhere in the kernel.

Two kernels, one switch
-----------------------

The kernel carries a set of *observational-equivalence* fast paths
(DESIGN.md §10). They are on exactly when no tie hook is installed
(:meth:`Environment.set_tie_hook`): installing a hook selects the
*reference kernel* — every hop a real heap entry, every same-instant
tie shown to the hook, index 0 the reference schedule — and clearing it
selects the fast kernel again. There is no other option: a fast kernel
with a hook would hide from the hook the very interleavings it exists
to permute.

* :meth:`Environment.try_finish_now` — completes a freshly created event
  synchronously instead of routing it through the heap, legal only when
  the event has no observers (no callbacks) *and* nothing else can run
  at the current instant, so no other process can interleave. The lock
  table's uncontended grant (``core/locks.py``) is the one caller.
* synchronous :class:`Process` completion — when a process terminates
  and nothing else can run at the current instant, its completion
  callbacks run inline instead of via a scheduled event.
* the *guard* — :meth:`Environment.add_source`,
  :meth:`Environment.reguard`, :meth:`Environment.finish_inline`. A
  *virtual source* keeps pending steps the heap never sees: each is
  ``(when, c, seq)``, ``c`` the value of :attr:`events_scheduled`
  *read* when the step is created and ``seq`` from the kernel-wide
  creation counter. The kernel dispatches by plain pop while the heap
  top is strictly before the earliest pending step (``_guard``) and
  otherwise first has the sources perform, in ``(when, seq)`` order,
  the steps that sort before the heap top: a step precedes a real
  ``(when, priority, eid)`` iff its instant is earlier, or the instants
  tie, ``priority >= 1`` and ``c < eid`` (interrupts go first). Pushes
  happen only inside real dispatches and the processes a step resumes,
  and a step is performed right before the first real dispatch that
  sorts after it, so ``c`` read then stands where the reference's eid
  for that step stood. The shared Ethernet's medium ledger
  (``net/ethernet.py``) is the one source.

Which paths exist is decided by measured traffic, not by what can be
proved exact: each one is an exactness proof to keep, so it stays only
while the counts of EXPERIMENTS.md E14 show the benchmark workloads and
the committed experiments taking it.

"Nothing else can run at the current instant" is three conditions,
centralized in :meth:`Environment.can_collapse`: the next heap entry
must be *strictly* later (an entry at the same tick always sorts before
a new push — older eid or interrupt priority — so it would interleave),
no further callbacks of the event being processed right now may be
pending (the ``_solo`` flag, maintained by the dispatch loop; a second
callback of the same event runs at the same instant without touching
the heap, so the heap check alone cannot see it), and the event a
``run(until=event)`` is waiting for must not have fired yet (the loop
ends with this dispatch and ``run``'s caller looks at the world next).
A pending virtual step counts as a heap entry of its instant: it was
created before anything pushed from now on.
:meth:`~Environment.can_collapse` and
:meth:`~Environment.try_finish_now` are the whole legality surface, and
:attr:`~Environment.is_reference` names the switch itself: nothing
outside ``repro.sim`` reads the kernel's private state.

One documented obligation on callers: an event completed through
:meth:`~Environment.try_finish_now` must be yielded before the caller
performs any priority-0 scheduling (i.e. :meth:`Process.interrupt`),
because the reference execution would deliver such an interrupt before
the caller's resumption. Lock grants are taken as ``with ... as lock:
yield lock.grant``, so the obligation is structural.

Every fast path is exact: it fires only when the reference execution
would have performed the identical state transitions in the identical
order, which is what the hypothesis reference-equivalence suite
(tests/test_kernel_equivalence.py) checks against the hooked kernel.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from ..errors import ConsistencyError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "CountOf",
    "run_process",
]

class Interrupt(Exception):
    """Thrown inside a process generator by :meth:`Process.interrupt`.

    ``cause`` carries whatever the interrupter passed (e.g. a disk-failure
    record for fault injection).
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"Interrupt({cause!r})")
        self.cause = cause


# Sentinel distinguishing "not yet triggered" from a None value.
_PENDING = object()

_INF = float("inf")
_head = attrgetter("head")


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *pending* -> *triggered* (scheduled on the heap) ->
    *processed* (callbacks ran). ``succeed``/``fail`` trigger the event;
    the environment processes it at the scheduled time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        # Set when a process observed the failure (prevents "unhandled
        # failure" noise for events whose failures are consumed).
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's success value, or its failure exception."""
        if self._value is _PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self


#: The stop event of a ``run()`` that was given none: never triggered,
#: so never processed (no environment ever sees it).
_NEVER = Event(None)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ + succeed: a Timeout is born triggered,
        # so one attribute block and one heap push is the whole cost.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._schedule(self, delay)


class _Initialize(Event):
    """Internal: kicks a newly created process on the next step."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        env._schedule(self)


class Process(Event):
    """A running process; also an event that fires when it terminates.

    The wrapped generator yields :class:`Event` instances. When a yielded
    event succeeds, the generator is resumed with the event's value; when
    it fails, the exception is thrown into the generator (so processes can
    ``try/except`` failures of sub-operations).
    """

    __slots__ = ("_gen", "_waiting_on", "_serial")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self._gen = generator
        self._waiting_on: Optional[Event] = None
        env._proc_count += 1
        self._serial = env._proc_count
        _Initialize(env, self)

    @property
    def name(self) -> str:
        """Deterministic diagnostic name: the generator's qualname plus
        a per-environment creation serial. Creation order is replay-
        stable, so the same program names its processes identically on
        every run — race and deadlock reports can quote them and still
        compare byte-for-byte across runs."""
        code = getattr(self._gen, "gi_code", None)
        base = getattr(code, "co_qualname", None) or getattr(
            code, "co_name", "process")
        return f"{base}#{self._serial}"

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A process may not interrupt itself, and a dead process cannot be
        interrupted.
        """
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a dead process")
        if self.env.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._deliver_interrupt)
        self.env._schedule(event, priority=0)

    def _deliver_interrupt(self, event: Event) -> None:
        """Throw the interrupt in; if the process survives it, the wait
        it was pulled out of must not resume it a second time. (A
        process the interrupt kills stays registered on purpose: see the
        dead-waiter rule in :meth:`_resume`.)"""
        abandoned = self._waiting_on
        self._resume(event)
        if (self._value is _PENDING and abandoned is not None
                and abandoned.callbacks is not None):
            abandoned.callbacks.remove(self._resume)

    def _resume(self, event: Event) -> None:
        # Ignore stale wakeups: an interrupt may arrive while we were
        # waiting on another event; when that event later fires we must
        # not resume twice off of it if the generator already terminated.
        # A failure delivered to a dead waiter counts as observed — the
        # process that would have handled it was interrupted (a crashed
        # server's in-flight disk write failing later must not surface
        # as an unhandled error from nowhere).
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
            return
        env = self.env
        env._active = self
        gen = self._gen
        send = gen.send
        try:
            while True:
                try:
                    if event._ok:
                        target = send(event._value)
                    else:
                        event._defused = True
                        target = gen.throw(event._value)
                except StopIteration as stop:
                    self._waiting_on = None
                    heap = env._heap
                    if (env._tie_hook is None and env._solo
                            and (not heap or heap[0][0] > env._now)
                            and env._guard > env._now
                            and env._stop.callbacks is not None):
                        # Synchronous completion: nothing else can run
                        # at this instant, so the completion event would
                        # be the very next thing the heap pops — running
                        # its callbacks inline is observationally
                        # identical and saves the push.
                        env.finish_inline(self, stop.value)
                    else:
                        self.succeed(stop.value)
                    return
                except BaseException as exc:
                    # The process body raised: the process event fails.
                    # If nobody observes it, the failure surfaces from
                    # Environment.step (errors never pass silently).
                    self._waiting_on = None
                    self.fail(exc)
                    return
                if not isinstance(target, Event):
                    exc = TypeError(
                        f"process yielded a non-event: {target!r}"
                    )
                    # Crash the process with a clear error.
                    self._waiting_on = None
                    gen.close()
                    self.fail(exc)
                    return
                if target.callbacks is None:
                    # Already fired: loop and feed its value immediately.
                    event = target
                    continue
                self._waiting_on = target
                target.callbacks.append(self._resume)
                return
        finally:
            env._active = None


class _ConditionBase(Event):
    """Fires when ``need`` of the given events have succeeded.

    If enough events fail that success becomes impossible, the condition
    fails with the first failure's exception.
    """

    __slots__ = ("events", "_need", "_done", "_failed", "_first_failure")

    def __init__(self, env: "Environment", events: Iterable[Event], need: int):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if not isinstance(ev, Event):
                raise TypeError(f"condition requires events, got {ev!r}")
        if need < 0 or need > len(self.events):
            raise ValueError(
                f"need {need} of {len(self.events)} events is impossible"
            )
        self._need = need
        self._done: set[int] = set()  # ids of events that fired successfully
        self._failed = 0
        self._first_failure: Optional[BaseException] = None
        # Register on every event even when need is already met: late
        # failures (e.g. a background replica write after a P-FACTOR 0
        # reply) must still be consumed rather than crash the run.
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if self._value is _PENDING and len(self._done) >= self._need:
            self.succeed(self._collect())

    def _collect(self) -> list:
        """Values of the events that have *fired* successfully, in event
        order. Note Timeout carries its value from construction, so we
        track firing explicitly rather than trusting ``triggered``."""
        return [ev._value for ev in self.events if id(ev) in self._done]

    def _check(self, event: Event) -> None:
        if not event._ok:
            # Consume the failure even if we already triggered; a late
            # replica failure after quorum must not crash the run.
            event._defused = True
        if self._value is not _PENDING:
            return
        if event._ok:
            self._done.add(id(event))
        else:
            self._failed += 1
            if self._first_failure is None:
                if not isinstance(event._value, BaseException):
                    raise ConsistencyError(
                        f"failed event carries a non-exception value: "
                        f"{event._value!r}"
                    )
                self._first_failure = event._value
        if len(self._done) >= self._need:
            self.succeed(self._collect())
        elif len(self.events) - self._failed < self._need:
            if self._first_failure is None:
                raise ConsistencyError(
                    "condition failed without a recorded first failure"
                )
            self.fail(self._first_failure)


class AllOf(_ConditionBase):
    """Fires when every event has succeeded; value is the list of values."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        events = list(events)
        super().__init__(env, events, need=len(events))


class AnyOf(_ConditionBase):
    """Fires when at least one event has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, need=1)


class CountOf(_ConditionBase):
    """Fires when ``need`` of the events have succeeded.

    This is the primitive behind the Bullet server's P-FACTOR: issue
    writes to all replicas and reply to the client once ``need`` of them
    have completed.
    """

    __slots__ = ()


class Environment:
    """The simulation scheduler and clock.

    A fresh environment is the fast kernel; :meth:`set_tie_hook` turns
    it into the reference kernel (see the module docstring).
    """

    __slots__ = ("_now", "_heap", "_eid", "_active", "_solo", "_stop",
                 "_proc_count", "_tie_hook", "_sources", "_guard",
                 "_step_seq")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list = []
        self._eid = 0
        self._proc_count = 0
        self._active: Optional[Process] = None
        # True while no further callbacks of the event currently being
        # dispatched remain (see module docstring). True outside any
        # dispatch, where no same-instant callback can be pending.
        self._solo = True
        # The active run(until=<event>)'s stop event, _NEVER outside
        # one. Once it has fired, the run loop ends with the dispatch in
        # progress and run()'s caller looks at the world: from then on
        # something else *can* observe this instant, so every fast path
        # declines and the rest of the dispatch is the reference's.
        self._stop = _NEVER
        # Scheduling choice-point hook (model checking): consulted when
        # two or more heap entries tie on (time, priority). None — the
        # overwhelmingly common case — is the fast kernel: insertion-
        # order tie-break by plain heappop, fast paths on.
        self._tie_hook: Optional[Callable[[list], int]] = None
        # Virtual sources (see add_source), the creation counter their
        # steps share, and the guard: the earliest instant any of them
        # has a step pending, +inf when none has.
        self._sources: list = []
        self._step_seq = count()
        self._guard = _INF

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active

    @property
    def events_scheduled(self) -> int:
        """Total ordering tickets ever taken — one per event pushed on
        the heap; a virtual source's steps take none (the events/op and
        events/sec numerator in ``perf/``; monotone, never reset)."""
        return self._eid

    @property
    def is_reference(self) -> bool:
        """True while a tie hook is installed, i.e. this is the
        reference kernel. For code that keeps a reference path beside an
        analytic one and has to pick; whether a collapse is *legal* is
        still :meth:`can_collapse`'s question, never this one's."""
        return self._tie_hook is not None

    # -- event construction helpers -------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start ``generator`` as a process; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def count_of(self, events: Iterable[Event], need: int) -> CountOf:
        return CountOf(self, events, need)

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._eid += 1
        heappush(self._heap, (self._now + delay, priority, self._eid, event))

    def add_source(self, source: Any) -> Iterator[int]:
        """Register a *virtual source*: an object whose pending steps
        the run loop orders against the heap without their ever being
        on it (see the module docstring). A source has three members:
        ``guard``, the earliest instant a step of its is pending (+inf
        when none is; :meth:`reguard` after every change); ``head``,
        that step's ``(when, c, seq)``; and ``advance(bound)``, which
        performs in order its steps that sort before the ``(when, c,
        seq)`` triple ``bound`` and stops early, returning True, right
        after one that resumed a process through :meth:`finish_inline`.
        Returns the creation counter every source on this kernel draws
        ``seq`` from, so steps of two sources interleave in the order
        they were made."""
        self._sources.append(source)
        return self._step_seq

    def reguard(self) -> None:
        """A source's ``guard`` changed: publish the earliest."""
        guard = _INF
        for source in self._sources:
            if source.guard < guard:
                guard = source.guard
        self._guard = guard

    def finish_inline(self, event: Event, value: Any = None,
                      when: Optional[float] = None) -> None:
        """Succeed ``event`` and run its callbacks now, as the tail of
        the dispatch in progress, instead of through the heap.

        For an owner whose own step *is* the instant the waiter resumes
        (a virtual source's last step of a message, performed at
        ``when``, which becomes ``now``): the reference resumes the
        waiter from that very dispatch, so this is its execution order
        on both kernels, not a shortcut that needs a legality test. The
        caller must do nothing afterwards — the callbacks run arbitrary
        code that has to see everything the caller scheduled.
        """
        if when is not None:
            self._now = when
        event._ok = True
        event._value = value
        callbacks = event.callbacks
        event.callbacks = None
        self._solo = len(callbacks) == 1
        for callback in callbacks:
            callback(event)
        self._solo = True

    def can_collapse(self, end: float) -> bool:
        """True when no observer can run in the half-open interval
        [now, end] other than the caller itself.

        This is the legality test for every analytic fast path: the next
        heap entry and the next virtual step must be *strictly* after
        ``end`` (a same-tick one goes before anything the caller
        schedules now), and no
        further callbacks of the event currently being dispatched may
        remain (they would run at this instant without appearing on the
        heap). Nor may the running ``run(until=event)`` have seen its
        event fire: its caller observes the world as soon as the
        dispatch in progress ends. Pass ``end == now`` for point-in-time
        collapses (a zero-delay hop); pass a later ``end`` for
        closed-form busy segments (network transfers).
        """
        return (self._tie_hook is None and self._solo
                and (not self._heap or self._heap[0][0] > end)
                and self._guard > end
                and self._stop.callbacks is not None)

    def try_finish_now(self, event: Event, value: Any = None) -> bool:
        """Fast path: complete a *fresh* event synchronously.

        Returns True when the event was marked processed in place —
        legal only when nobody registered a callback yet (so no
        suspended process gets resumed out of turn) and
        :meth:`can_collapse` holds for the current instant (so the
        reference execution would pop this event next with no
        intervening work). Callers fall back to ``event.succeed(value)``
        on False. Uncontended lock grants use this to skip the heap
        round-trip.
        """
        if (self._tie_hook is None and self._solo and not event.callbacks
                and (not self._heap or self._heap[0][0] > self._now)
                and self._guard > self._now
                and self._stop.callbacks is not None):
            event._ok = True
            event._value = value
            event.callbacks = None
            return True
        return False

    def set_tie_hook(self, hook: Optional[Callable[[list], int]]) -> None:
        """Install (or clear, with None) the scheduling choice-point
        hook — the one kernel switch.

        With a hook installed this is the *reference kernel*: every
        fast path is off (each zero-delay hop and immediate grant is a
        real heap entry, so every same-instant interleaving is a
        visible tie), and every dispatch that finds two or more heap
        entries tied on ``(time, priority)`` calls ``hook(entries)``
        with the tied ``(when, priority, eid, event)`` tuples in
        insertion order (ascending eid) and dispatches the entry at the
        returned index; the rest go back on the heap. Index 0 therefore
        reproduces the reference schedule exactly. The model checker
        drives this to enumerate or randomize event orderings that the
        deterministic kernel would otherwise never exhibit. Clearing
        the hook restores the fast kernel.

        Fast-path legality reads the hook live, but ``run`` picks its
        pop once per call: a hook installed from inside a callback
        turns the fast paths off at once and starts choosing ties at
        the next ``run``/``step`` (until then ties resolve in insertion
        order, which is index 0).
        """
        self._tie_hook = hook

    def _pop_tied(self, heap: list) -> tuple:
        """``heappop`` for the reference kernel: consult the tie hook
        when the head of the heap is not unique in ``(time, priority)``."""
        first = heappop(heap)
        if not heap or heap[0][0] != first[0] or heap[0][1] != first[1]:
            return first
        tied = [first]
        while heap and heap[0][0] == first[0] and heap[0][1] == first[1]:
            tied.append(heappop(heap))
        hook = self._tie_hook
        index = 0 if hook is None else hook(tied)
        if not 0 <= index < len(tied):
            raise ConsistencyError(
                f"tie hook chose {index} of {len(tied)} candidates")
        chosen = tied.pop(index)
        for entry in tied:
            heappush(heap, entry)
        return chosen

    def _perform_virtual(self, deadline: float) -> bool:
        """The run loop's slow path, taken when the heap top is not
        strictly before the guard: have the sources perform the steps
        that sort before the heap top — or, when the heap has nothing
        by ``deadline``, every step up to and including it. True when
        one resumed a process: arbitrary code ran, the loop looks again.
        """
        if self._guard > deadline or self._guard == _INF:
            return False
        heap = self._heap
        if heap and heap[0][0] <= deadline:
            # A step of the same instant goes first iff it was made
            # before the event was pushed; an interrupt yields to none.
            when, priority, eid, _event = heap[0]
            bound = (when, eid if priority else 0, -1)
        else:
            bound = (deadline, _INF, _INF)
        sources = self._sources
        if len(sources) == 1:
            return sources[0].advance(bound)
        while True:
            first, second = sorted(sources, key=_head)[:2]
            if first.head >= bound:
                return False
            if first.advance(min(bound, second.head)):
                return True

    def step(self) -> None:
        """Process exactly one event — after the virtual steps that
        sort before it; one of those resuming a process counts as it."""
        heap = self._heap
        if ((not heap or heap[0][0] >= self._guard)
                and self._perform_virtual(_INF)):
            return
        if not heap:
            raise RuntimeError("no scheduled events")
        pop = heappop if self._tie_hook is None else self._pop_tied
        when, _priority, _eid, event = pop(heap)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        self._solo = len(callbacks) == 1
        for callback in callbacks:
            callback(event)
        self._solo = True
        if not event._ok and not event._defused:
            # A failure nobody consumed: surface it rather than letting
            # errors pass silently.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        * ``until`` is ``None``: run until no events remain.
        * ``until`` is a number: run until the clock reaches it.
        * ``until`` is an :class:`Event`: run until it fires, then return
          its value (re-raising its exception on failure).

        All three are one loop over ``(stop event, deadline)``: a
        missing stop event is one that never fires, a missing deadline
        is +inf; one comparison of the heap top against the guard picks
        between the plain pop and the virtual sources' slow path. The
        loop inlines :meth:`step` — the per-event tuple unpack and
        callback dispatch is the single hottest path in the whole
        system, so it pays to keep it free of method-call and property
        overhead; which pop serves it (plain ``heappop``, or the
        tie-aware one of the reference kernel) is decided here, once
        per call, not per event.
        """
        heap = self._heap
        stop, deadline = _NEVER, _INF
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self._now})")
        pop = heappop if self._tie_hook is None else self._pop_tied
        self._stop = stop
        try:
            while stop.callbacks is not None:
                if not heap or heap[0][0] >= self._guard:
                    if self._perform_virtual(deadline):
                        continue
                    if not heap:
                        break
                if heap[0][0] > deadline:
                    break
                when, _priority, _eid, event = pop(heap)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    # _solo already True: the lone callback may collapse.
                    callbacks[0](event)
                else:
                    self._solo = False
                    for callback in callbacks:
                        callback(event)
                    self._solo = True
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._stop = _NEVER
            self._solo = True
        if stop is not _NEVER:
            if stop.callbacks is not None:
                raise RuntimeError(
                    "deadlock: event will never fire (no scheduled events)"
                )
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        if until is not None:
            self._now = deadline
        return None


def run_process(env: Environment, generator: Generator) -> Any:
    """Convenience for tests: run ``generator`` to completion, return value."""
    return env.run(until=env.process(generator))
