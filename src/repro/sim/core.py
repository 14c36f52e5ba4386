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

* held events — a fresh event the running process triggers (a timeout
  it makes, or an event it succeeds: a lock grant, a hand-off to a
  process that already waits on it, its own completion) is *held* off
  the heap, its ticket not yet taken, until the run loop next looks at
  it. If the process yields it next and nothing can run in ``[now, when
  it fires]`` (``Environment._clear`` of that instant), the kernel moves
  the clock there and resumes the generator in the same loop: the
  reference would pop that event next with nothing in between. Any
  other move first pushes it, with the ticket it would have taken when
  triggered: every scheduling, a read of :attr:`events_scheduled`, a
  tie hook, a second held event. So an event still held when the run
  loop regains control is newer than everything pending; if ``_clear``
  of its instant holds, nothing sorts before it, and the loop dispatches
  it from the hold as the reference's next pop. Otherwise the loop
  pushes it and pops the heap, and ``run()`` pushes it on its way out.
  Every uncontended CPU charge and lock grant of the stack, and every
  hand-off that is the next thing due, takes this path.
* the *guard* — :meth:`Environment.add_source`,
  :meth:`Environment.remove_source`, :meth:`Environment.reguard`,
  :meth:`Environment.finish_inline`. A
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
  for that step stood. A source also publishes ``wake``, the earliest
  instant a pending step of its can resume a process (``_wake`` over
  all): steps before it are *quiet* — they resume nobody — and a held
  event collapses past them, the kernel having them performed in place
  first. A source with nothing left to do leaves the kernel. Two
  kinds exist: the shared Ethernet's medium ledger
  (``net/ethernet.py``), whose background daemon's steps are quiet, and
  the NFS buffer cache's churn daemon (``nfs/buffercache.py``), quiet
  throughout, which leaves once its incarnation has crashed.

Which paths exist is decided by measured traffic, not by what can be
proved exact: each one is an exactness proof to keep, so it stays only
while the counts of EXPERIMENTS.md E14 (E22 and E24 for held events) show
the benchmark workloads and the committed experiments taking it, and
E26 prices what each one saves.

"Nothing else can run in ``[now, end]``" is four conditions, asked in
one place, ``Environment._clear``: the next heap entry must be
*strictly* later than ``end`` (an entry at the same tick always sorts
before a new push — older eid or interrupt priority — so it would
interleave), no further callbacks of the event being processed right
now may be pending (the ``_solo`` flag, maintained by the dispatch
loop; a second callback of the same event runs at the same instant
without touching the heap, so the heap check alone cannot see it), the
event a ``run(until=event)`` is waiting for must not have fired yet
(the loop ends with this dispatch and ``run``'s caller looks at the
world next), and ``end`` must not lie past a ``run(until=t)``'s ``t``
(whose caller looks at the world then). The next step that can wake a
process counts as a heap entry of its instant: it was created before
anything pushed from now on. A quiet step in ``[now, end]`` does not
stop the collapse; before the clock moves to ``end`` the kernel has the
sources perform, in place, the quiet steps the reference dispatches
ahead of the held event — every one before ``end``, and at ``end`` the
ones made before the hold — while those made in doing so are newer than
the held event and stay pending. Only the held event asks it, and
:attr:`~Environment.is_reference` names the switch itself: nothing
outside ``repro.sim`` reads the kernel's private state.

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
_guard_of = attrgetter("guard")
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
        env = self.env
        if env._active is None or env._tie_hook is not None:
            env._schedule(self)
        else:
            # The running process triggered it: held off the heap like
            # its own timeouts (see _hold).
            env._hold(self, 0.0)
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

    def __init__(self, env: "Environment", delay: float):
        if not 0 <= delay < _INF:
            # NaN fails every comparison: it would sort anywhere in the
            # heap and, once dispatched, turn the clock into NaN.
            raise ValueError(f"delay {delay} is not a finite time >= 0")
        # Inlined Event.__init__ + succeed: a Timeout is born triggered,
        # so one attribute block and one heap push is the whole cost.
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        self.delay = delay
        if env._active is None or env._tie_hook is not None:
            env._schedule(self, delay)
        else:
            # The running process's own charge: held off the heap until
            # it is yielded (see Environment._hold).
            env._hold(self, delay)


class _Initialize(Event):
    """Internal: kicks a newly created process on the next dispatch."""

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
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    # The process body raised: the process event fails.
                    # If nobody observes it, the failure surfaces from
                    # Environment.run (errors never pass silently).
                    self._waiting_on = None
                    self.fail(exc)
                    return
                if (target is env._held and not target.callbacks
                        and (self._waiting_on is None
                             or self._waiting_on.callbacks is None)):
                    # An interrupt delivery (the wait left behind still
                    # pending) never gets here: its caller acts once this
                    # resumption is over.
                    if env._clear(env._held_at):
                        # Uncontended charge or grant: the reference
                        # would pop this event next, with nothing in
                        # between, and resume this process from it
                        # (module docstring).
                        env._held = None
                        end = env._held_at
                        if env._guard <= end:
                            # Quiet steps due first: performed in place.
                            env._perform_quiet(end)
                        env._now = end
                        target.callbacks = None
                        event = target
                        continue
                    if env._solo:
                        # Refused with no other callback of this
                        # dispatch pending: nothing _clear reads moves
                        # before the run loop looks, so it would be
                        # refused there too. Pushed now, same ticket.
                        env._flush()
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
            # An event still held stays held: the run loop looks at it
            # next (Environment.run).
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
                 "_deadline", "_held", "_held_at", "_proc_count",
                 "_tie_hook", "_sources", "_guard", "_wake", "_step_seq")

    def __init__(self):
        self._now = 0.0
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
        # The latest instant a collapse may reach: run(until=t)'s t,
        # +inf otherwise.
        self._deadline = _INF
        # The active process's newest fresh event while it is held off
        # the heap (see _hold), and the instant it fires.
        self._held: Optional[Event] = None
        self._held_at = 0.0
        # Scheduling choice-point hook (model checking): consulted when
        # two or more heap entries tie on (time, priority). None — the
        # overwhelmingly common case — is the fast kernel: insertion-
        # order tie-break by plain heappop, fast paths on.
        self._tie_hook: Optional[Callable[[list], int]] = None
        # Virtual sources (see add_source), the creation counter their
        # steps share, the guard: the earliest instant any of them has a
        # step pending, and the earliest instant a pending step of
        # theirs can resume a process; +inf when none has.
        self._sources: list = []
        self._step_seq = count()
        self._guard = _INF
        self._wake = _INF

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
        the heap; a virtual source's steps and the held events that
        never reach it take none: those a process runs through inline
        and those the run loop dispatches from the hold, past quiet
        steps too (the events/op and events/sec numerator in ``perf/``;
        monotone, never reset). Reading it pushes a held event."""
        if self._held is not None:
            self._flush()
        return self._eid

    @property
    def is_reference(self) -> bool:
        """True while a tie hook is installed, i.e. this is the
        reference kernel. For code that keeps a reference path beside an
        analytic one and has to pick; whether a collapse is *legal* is
        the kernel's own question (``_clear``), never this one's."""
        return self._tie_hook is not None

    # -- event construction helpers -------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay)

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
        if self._held is not None:
            self._flush()
        self._eid += 1
        heappush(self._heap, (self._now + delay, priority, self._eid, event))

    def _hold(self, event: Event, delay: float) -> None:
        """Keep a fresh event the active process triggered — its own
        timeout, or any event it succeeds — off the heap without taking
        its ticket yet. Every ticket is taken by :meth:`_schedule`,
        which pushes a held event first, so when it is pushed
        (:meth:`_flush`) it gets the eid it would have taken when
        triggered. It never reaches the heap at all when :meth:`_clear`
        holds for its instant as the process yields it next, or as the
        run loop next looks at it (:meth:`run`)."""
        if self._held is not None:
            self._flush()
        self._held = event
        self._held_at = self._now + delay

    def _flush(self) -> None:
        """Push the held event, with the ticket it was triggered with."""
        held = self._held
        self._held = None
        self._eid += 1
        heappush(self._heap, (self._held_at, 1, self._eid, held))

    def add_source(self, source: Any) -> Iterator[int]:
        """Register a *virtual source*: an object whose pending steps
        the run loop orders against the heap without their ever being
        on it (see the module docstring). A source has four members:
        ``guard``, the earliest instant a step of its is pending (+inf
        when none is); ``wake``, the earliest instant a pending step of
        its can resume a process (not before ``guard``; +inf when none
        can; :meth:`reguard` after a change to either); ``head``, the
        earliest step's ``(when, c, seq)``; and ``advance(bound)``,
        which performs in order its steps that sort before the ``(when,
        c, seq)`` triple ``bound`` and stops early, returning True,
        right after one that resumed a process through
        :meth:`finish_inline`. A step changes no other source's steps
        but through a process it resumes.
        Returns the creation counter every source on this kernel draws
        ``seq`` from, so steps of two sources interleave in the order
        they were made."""
        self._sources.append(source)
        return self._step_seq

    def remove_source(self, source: Any) -> None:
        """A source with no step pending, that will make none, leaves
        the kernel (from inside its own ``advance``, or between runs)."""
        self._sources.remove(source)
        self.reguard()

    def reguard(self) -> None:
        """A source's ``guard`` or ``wake`` changed: publish the
        earliest of each."""
        guard = wake = _INF
        for source in self._sources:
            if source.guard < guard:
                guard = source.guard
            if source.wake < wake:
                wake = source.wake
        self._guard = guard
        self._wake = wake

    def finish_inline(self, event: Event, value: Any, when: float) -> None:
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
        self._now = when
        event._ok = True
        event._value = value
        callbacks = event.callbacks
        event.callbacks = None
        self._solo = len(callbacks) == 1
        for callback in callbacks:
            callback(event)
        self._solo = True

    def _clear(self, end: float) -> bool:
        """True when nothing but the running process can act in
        ``[now, end]``: the legality test of the held event, ``end`` the
        instant it fires — for its collapse into the process that yields
        it, and for its dispatch from the hold by the run loop.

        The next heap entry and the next virtual step that can wake a
        process must be *strictly* after ``end`` (a same-tick one goes
        before anything pushed now; quiet steps are performed first, see
        :meth:`_perform_quiet`),
        and no further callbacks of the event being dispatched may remain
        (they would run at this instant without appearing on the heap).
        Nor may the running ``run(until=event)`` have seen its event
        fire (its caller observes the world as soon as the dispatch in
        progress ends), nor may ``end`` lie past the running
        ``run(until=t)``'s ``t``, whose caller looks at the world then.
        Only a held event asks, and there is none on the reference
        kernel: a tie hook pushes it, and nothing is held under one.
        """
        heap = self._heap
        return ((not heap or heap[0][0] > end)
                and self._wake > end
                and self._solo
                and end <= self._deadline
                and self._stop.callbacks is not None)

    def set_tie_hook(self, hook: Optional[Callable[[list], int]]) -> None:
        """Install (or clear, with None) the scheduling choice-point
        hook — the one kernel switch. An event held off the heap goes
        onto it first, so the reference kernel never sees one.

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
        the next ``run`` (until then ties resolve in insertion order,
        which is index 0).
        """
        if self._held is not None:
            self._flush()
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
        return self._merge(bound)

    def _perform_quiet(self, end: float) -> None:
        """Before a held event's collapse, or its dispatch from the
        hold, moves the clock to ``end``: have the sources perform the
        steps the reference dispatches ahead of the held event — every
        one before ``end`` and, at ``end``, those made before the hold.
        ``_clear`` saw none of them can resume a process. The held event
        is no longer held, so a step made in here reads the ticket
        counter as it stood at the hold, and its ``seq``, drawn after
        the bound's, sorts it after the held event as the reference's
        would: it stays pending."""
        bound = (end, self._eid, next(self._step_seq))
        sources = self._sources
        if (sources[0].advance(bound) if len(sources) == 1
                else self._merge(bound)):
            raise ConsistencyError(
                "a virtual step performed ahead of a collapse resumed a "
                "process, though its source's wake was past the collapse")

    def _merge(self, bound: tuple) -> bool:
        """Have two or more sources perform, in ``(when, seq)`` order,
        their steps that sort before the ``(when, c, seq)`` triple
        ``bound``. Only a source with a step pending by the bound's
        instant takes part. A lone one advances to the bound at once
        (another's steps change only through a process a step resumes,
        which ends the call); of two or more, the one with the earliest
        guard advances up to the next one's guard or, when the guards
        tie, the one with the lesser head up to the other's. True when
        a step resumed a process."""
        limit = bound[0]
        sources = self._sources
        while True:
            if len(sources) == 2:
                # The NFS baseline's pair: one comparison orders it, at
                # a third of a keyed sort's host time (EXPERIMENTS E30).
                first, second = sources
                if second.guard < first.guard:
                    first, second = second, first
            elif len(sources) > 2:
                first, second = sorted(sources, key=_guard_of)[:2]
            else:
                # The others left the kernel.
                return sources[0].advance(bound)
            guard = second.guard
            if guard > limit:
                return first.advance(bound)
            if first.guard < guard:
                # Every step before the other's instant goes first
                # (this bound sorts before any real one of that instant).
                until = (guard, -1, -1)
            elif guard == _INF:
                # (Every source is empty: an unbounded run's bound.)
                return False
            else:
                # Tied on an instant: creation order decides.
                first, second = sorted(sources, key=_head)[:2]
                if first.head >= bound:
                    return False
                until = min(bound, second.head)
            if first.advance(until):
                return True

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        * ``until`` is ``None``: run until no events remain.
        * ``until`` is a number: run until the clock reaches it.
        * ``until`` is an :class:`Event`: run until it fires, then return
          its value (re-raising its exception on failure).

        All three are one loop over ``(stop event, deadline)``: a
        missing stop event is one that never fires, a missing deadline
        is +inf. The next event has two sources: a held event for which
        ``_clear`` holds is dispatched from the hold (quiet steps due
        first performed in place, as a collapse does); otherwise the
        held event, if any, is pushed and one comparison of the heap top
        against the guard picks between the plain pop and the virtual
        sources' slow path. Whatever is still held when the loop ends is
        pushed. It is the kernel's one dispatch body: the per-event
        tuple unpack and callback dispatch is the single hottest path in
        the whole system, so it is kept free of method-call and property
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
            if deadline != deadline:
                raise ValueError("until=nan is not a time")
            if deadline < self._now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self._now})")
        pop = heappop if self._tie_hook is None else self._pop_tied
        self._stop = stop
        self._deadline = deadline
        try:
            while stop.callbacks is not None:
                if self._held is None or not self._clear(self._held_at):
                    if self._held is not None:
                        self._flush()
                    if not heap or heap[0][0] >= self._guard:
                        if self._perform_virtual(deadline):
                            continue
                        if not heap:
                            break
                    if heap[0][0] > deadline:
                        break
                    when, _priority, _eid, event = pop(heap)
                else:
                    # Newer than everything pending and nothing sorts
                    # before it: the reference's next pop, taken from
                    # the hold slot (module docstring).
                    event = self._held
                    self._held = None
                    when = self._held_at
                    if self._guard <= when:
                        # Quiet steps due first: performed in place.
                        self._perform_quiet(when)
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
            if self._held is not None:
                self._flush()
            self._stop = _NEVER
            self._deadline = _INF
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
