"""The shared 10 Mb/s Ethernet segment.

One transmission occupies the medium at a time. A message larger than
the MTU is fragmented into packets; each packet costs host software
overhead (driver/protocol, charged *outside* the medium so other hosts
can interleave) plus wire occupancy (charged *inside* the medium).

"Measurements have been done on a normally loaded Ethernet" (§4): the
optional background-traffic process occupies the medium with seeded,
exponential-inter-arrival packets at the profile's utilization, so
foreground transfers experience realistic queueing jitter — long bursts
(1 MB transfers) queue behind more background packets than short ones.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..errors import ConsistencyError
from ..obs import MetricsRegistry, RegistryStats
from ..profiles import EthernetProfile
from ..sim import Environment, Event, Resource, SeededStream, Tracer

__all__ = ["Ethernet", "EthernetStats"]

# What a ledger sender's pending step finishes (see Ethernet.advance):
# the daemon's start-up, a packet's preparation (or a background gap),
# the medium's grant, a packet's wire time, an injected latency.
# _QUEUED and _DONE senders have no pending step.
_START, _PREP, _GRANT, _WIRE, _LATENCY, _QUEUED, _DONE = range(7)

_INF = float("inf")


def _insert(off: list, s: "_Transfer") -> None:
    """Keep ``off`` sorted by (when, seq): ``s``'s step is the newest,
    so it goes after every step that is not later than it."""
    i = len(off)
    while i and off[i - 1].when > s.when:
        i -= 1
    off.insert(i, s)


class _Transfer(Event):
    """One sender on the medium ledger: a foreground message (as an
    event it fires with the lost fragment indices, for the sending
    process to wait on) or the background daemon (which never fires).

    A sender is sequential, so it has at most one pending step: what
    ``step`` finishes at ``when``, ordered against real events of that
    instant by ``c`` — ``env.events_scheduled`` read when the step was
    made — and among steps by ``seq``, their creation order."""

    __slots__ = ("step", "when", "c", "seq", "indices", "pos", "end",
                 "final", "tail_chunk", "wire", "lost")


class EthernetStats(RegistryStats):
    """Traffic counters for the segment, backed by the observability
    registry (``repro_ethernet_<field>_total{segment=...}``)."""

    _PREFIX = "repro_ethernet"
    _COUNTER_FIELDS = (
        "packets",
        "payload_bytes",
        "wire_time",
        "background_packets",
        "lost_packets",
    )


class Ethernet:
    """A single shared Ethernet segment.

    The medium is modelled twice, and a segment uses one model for life,
    picked by the kernel switch as it stands when the segment is built
    (DESIGN.md §10). Built on the reference kernel, every fragment is
    three real heap events on a ``Resource`` (:meth:`_send_per_fragment`,
    :meth:`_background_traffic`) — the semantic authority. Built on the
    fast kernel, the segment keeps a *medium ledger* and registers it
    as a virtual source (``Environment.add_source``): every sender,
    foreground message or background daemon, is a :class:`_Transfer`
    whose next step is a virtual event. None of them is ever on the
    heap; the kernel calls :meth:`advance` to have the steps due before
    its next real event performed, by arithmetic.
    """

    def __init__(
        self,
        env: Environment,
        profile: EthernetProfile,
        stream: Optional[SeededStream] = None,
        background_load: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "ether",
    ):
        self.env = env
        self.profile = profile
        self.name = name
        self.stats = EthernetStats(metrics, segment=name)
        # Direct counter handles for the per-fragment hot loop (the
        # facade's attribute protocol costs a getattr+setattr per bump).
        self._packets = self.stats.handle("packets")
        self._payload_bytes = self.stats.handle("payload_bytes")
        self._wire_time = self.stats.handle("wire_time")
        self._background_packets = self.stats.handle("background_packets")
        self._lost_packets = self.stats.handle("lost_packets")
        self._tracer = tracer
        self._stream = stream
        # Fault-plane injection seams (see repro.faults): a partition
        # drops every fragment, a loss window drops a seeded fraction,
        # a latency spike charges extra time per fragment.
        self._fault_partitioned = False
        self._fault_loss = 0.0
        self._fault_loss_stream: Optional[SeededStream] = None
        self._fault_extra_latency = 0.0
        self._lossy = profile.loss_probability > 0  # kept by set_fault
        if profile.loss_probability > 0 and stream is None:
            raise ValueError("packet loss requires a seeded stream")
        if background_load and stream is None:
            raise ValueError("background load requires a seeded stream")
        # The reference medium (None on a ledger segment).
        self._medium = Resource(env, capacity=1) if env.is_reference else None
        # The ledger: who is on the wire (its step is a grant or a wire
        # time), who waits for it in FIFO order, and every other pending
        # step — packet preps, background gaps, injected latencies —
        # sorted by (when, seq).
        self._holder: Optional[_Transfer] = None
        self._queue: deque = deque()
        self._off: list = []
        self._daemon: Optional[_Transfer] = None
        #: The instant of the earliest pending step (the kernel's view).
        self.guard = _INF
        self._seq = None if env.is_reference else env.add_source(self)
        # The profile is frozen: its per-packet constants, read once.
        self._payload = profile.max_payload
        self._overhead = profile.per_packet_overhead
        self._wire_full = profile.wire_time(profile.max_payload)
        self._wire_times: dict = {}  # tail chunk size -> wire time
        self._sending = 0  # reference path: send_fragments calls in flight
        self._background_rate = 0.0  # packets per second
        if background_load and self._medium is not None:
            # Intentional daemon fork: seeded background traffic competes
            # for the medium for the whole experiment, detached by design.
            env.process(self._background_traffic())  # repro: allow(S001)
        elif background_load and profile.background_utilization > 0:
            # The same daemon as a ledger sender. Its first step stands
            # where the process's start-up event would: the first gap is
            # drawn when that is performed, not here.
            daemon = self._daemon = _Transfer(env)
            daemon.indices = daemon.lost = None
            daemon.wire = profile.wire_time(profile.background_packet_bytes)
            self._background_rate = (
                profile.background_utilization / daemon.wire)
            self._pend(daemon, _START, env.now)

    @property
    def lossy(self) -> bool:
        """True when fragments can currently be lost — by the profile's
        steady-state loss or by an injected partition/loss window. The
        RPC layer consults this to arm its retransmission machinery."""
        return self._lossy

    def set_fault(
        self,
        partitioned: Optional[bool] = None,
        loss: Optional[float] = None,
        loss_stream: Optional[SeededStream] = None,
        extra_latency: Optional[float] = None,
    ) -> None:
        """Adjust the injected fault state (None leaves a knob alone).

        ``loss`` > 0 requires a seeded stream (passed here or earlier)
        so the drop pattern replays deterministically; the stream is
        separate from the profile's, so injecting a window does not
        perturb background traffic or steady-state loss draws.
        """
        if partitioned is not None:
            self._fault_partitioned = bool(partitioned)
        if loss_stream is not None:
            self._fault_loss_stream = loss_stream
        if loss is not None:
            if not 0.0 <= loss <= 1.0:
                raise ValueError(f"loss probability must be in [0, 1], got {loss}")
            if loss > 0 and self._fault_loss_stream is None:
                raise ValueError("injected packet loss requires a seeded stream")
            self._fault_loss = loss
        if extra_latency is not None:
            if extra_latency < 0:
                raise ValueError(f"extra latency must be >= 0, got {extra_latency}")
            self._fault_extra_latency = extra_latency
        self._lossy = (self.profile.loss_probability > 0
                       or self._fault_partitioned or self._fault_loss > 0)

    def packets_for(self, nbytes: int) -> int:
        """How many packets a message of ``nbytes`` fragments into."""
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        if nbytes == 0:
            return 1  # a header-only packet still crosses the wire
        payload = self.profile.max_payload
        return (nbytes + payload - 1) // payload

    def message_cost_lower_bound(self, nbytes: int) -> float:
        """Uncontended time to move an ``nbytes`` message (for tests and
        back-of-envelope checks)."""
        packets = self.packets_for(nbytes)
        payload = self.profile.max_payload
        total = packets * self.profile.per_packet_overhead
        remaining = nbytes
        for _ in range(packets):
            chunk = min(remaining, payload) if nbytes else 0
            total += self.profile.wire_time(chunk)
            remaining -= chunk
        return total

    def send_message(self, nbytes: int):
        """A process moving an ``nbytes`` message across the segment.

        Yields until the last packet has left the wire. Returns True
        when the whole message arrived; False when any fragment was lost
        (the RPC layer recovers by selective retransmission). The sender
        pays full cost either way.
        """
        lost = yield from self.send_fragments(nbytes)
        return not lost

    def send_fragments(self, nbytes: int, indices=None):
        """A process sending (a subset of) a message's fragments.

        ``indices`` selects which fragments of the ``nbytes`` message to
        transmit (None = all). Returns the list of fragment indices that
        were lost on the wire — the retransmission set. Receivers keep
        fragments, so a message is complete once every index has arrived
        (Amoeba's FLIP did fragment-level recovery the same way).
        """
        if self._medium is not None:
            self._sending += 1
            try:
                return (yield from self._send_per_fragment(nbytes, indices))
            finally:
                self._sending -= 1
        if indices is not None and not indices:
            return []
        xfer = self._join(nbytes, indices)
        # Crash-safe, like the reference path: a sender interrupted
        # mid-transmission leaves the ledger and gives the medium up.
        try:
            return (yield xfer)
        finally:
            if xfer.step != _DONE:
                self._abort(xfer)

    def _send_per_fragment(self, nbytes: int, indices):
        """The reference path: a prep timeout, a medium grant and a wire
        timeout per fragment, every one a real heap event."""
        env = self.env
        profile = self.profile
        payload = profile.max_payload
        overhead = profile.per_packet_overhead
        wire_time = profile.wire_time
        total = self.packets_for(nbytes)
        last_chunk = nbytes - payload * (total - 1) if nbytes else 0
        # Only two distinct fragment sizes exist per message (full
        # payload and the tail), so their wire times are computed once.
        wire_full = wire_time(payload)
        wire_last = wire_time(last_chunk)
        if indices is None:
            indices = range(total)
        lost = []
        for index in indices:
            last = index == total - 1
            chunk = last_chunk if last else payload
            # Host-side packet preparation: does not occupy the medium.
            yield env.timeout(overhead)
            grant = self._medium.request()
            # Crash-safe: a sender interrupted mid-transmission (a
            # crashing server's worker killed while its reply is on the
            # wire) must not keep the shared medium forever — every
            # later sender would queue behind a grant nobody releases
            # and the whole system would wedge. Found by the model
            # checker (repro.modelcheck) as a scheduler deadlock.
            try:
                yield grant
                wire = wire_last if last else wire_full
                yield env.timeout(wire)
            finally:
                if grant.triggered:
                    self._medium.release(grant)
                else:
                    self._medium.cancel(grant)
            if self._fault_extra_latency > 0:
                # Injected latency spike: charged outside the medium so
                # other hosts still interleave.
                yield env.timeout(self._fault_extra_latency)
            self._packets.inc(1)
            self._payload_bytes.inc(chunk)
            self._wire_time.inc(wire)
            if self._fragment_lost():
                self._lost_packets.inc(1)
                lost.append(index)
        return lost

    def _fragment_lost(self) -> bool:
        """Loss decision for one fragment: partition drops everything,
        then the injected loss window, then the profile's steady loss.
        Draws come from the respective streams only when that source is
        active, so fault windows never perturb the profile's stream."""
        if self._fault_partitioned:
            return True
        if (self._fault_loss > 0
                and self._fault_loss_stream.random() < self._fault_loss):
            return True
        p = self.profile.loss_probability
        return p > 0 and self._stream.random() < p

    def _background_traffic(self):
        """Seeded background packets at the profile's mean utilization
        (the reference path's daemon)."""
        p = self.profile
        if p.background_utilization <= 0:
            return
        wire = p.wire_time(p.background_packet_bytes)
        rate = p.background_utilization / wire  # packets per second
        env = self.env
        stream = self._stream
        medium = self._medium
        while True:
            yield env.timeout(stream.expovariate(rate))
            grant = medium.request()
            yield grant
            yield env.timeout(wire)
            medium.release(grant)
            self._background_packets.inc(1)
            self._wire_time.inc(wire)

    @property
    def medium_queue_length(self) -> int:
        if self._medium is not None:
            return self._medium.queue_length
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """True when no foreground sender is on the segment in any
        phase — preparing a packet, queued for the medium, on the wire
        or serving out an injected latency. Background traffic does not
        count."""
        if self._medium is not None:
            return not self._sending
        daemon = self._daemon
        return (self._holder in (None, daemon)
                and all(s is daemon for s in self._off)
                and all(s is daemon for s in self._queue))

    # ---------------------------------------------------- the medium ledger

    def _fast_env(self) -> Environment:
        """The environment, for anything the ledger does: a tie hook
        installed since the segment was built would be shown none of
        the ledger's ties, so it hears about it instead of exploring a
        fraction of the schedules."""
        env = self.env
        if env.is_reference:
            raise ConsistencyError(
                f"a tie hook was installed over segment {self.name!r}, "
                f"whose medium ledger it cannot see; install the hook "
                f"before building the segment")
        return env

    def _pend(self, s: _Transfer, step: int, when: float) -> None:
        """``s``'s next step, made outside :meth:`advance`, is off the
        medium: ``step`` finishes at ``when``."""
        env = self._fast_env()
        s.step = step
        s.when = when
        s.c = env.events_scheduled
        s.seq = next(self._seq)
        _insert(self._off, s)
        self._reguard()

    def _reguard(self) -> None:
        """Tell the kernel the instant of the earliest pending step."""
        guard = self._off[0].when if self._off else _INF
        holder = self._holder
        if holder is not None and holder.when < guard:
            guard = holder.when
        self.guard = guard
        self.env.reguard()

    @property
    def head(self) -> tuple:
        """``(when, c, seq)`` of the earliest pending step."""
        s = self._holder
        if self._off:
            o = self._off[0]
            if (s is None or o.when < s.when
                    or (o.when == s.when and o.seq < s.seq)):
                s = o
        return (_INF, 0, 0) if s is None else (s.when, s.c, s.seq)

    def _join(self, nbytes: int, indices) -> _Transfer:
        """A new foreground sender: its first packet is ready one host
        overhead from now."""
        payload = self._payload
        total = self.packets_for(nbytes)
        xfer = _Transfer(self.env)
        xfer.indices = indices
        xfer.pos = 0
        xfer.end = (total if indices is None else len(indices)) - 1
        xfer.final = total - 1
        # Only two distinct fragment sizes exist per message (full
        # payload and the tail).
        xfer.tail_chunk = nbytes - payload * (total - 1) if nbytes else 0
        xfer.lost = []
        xfer.wire = self._wire_of(xfer)
        self._pend(xfer, _PREP, self.env.now + self._overhead)
        return xfer

    def _wire_of(self, s: _Transfer) -> float:
        """Wire occupancy of the fragment ``s`` is up to."""
        if s.indices is None:
            if s.pos != s.final:
                return self._wire_full
        elif s.indices[s.pos] != s.final:
            return self._wire_full
        chunk = s.tail_chunk
        wire = self._wire_times.get(chunk)
        if wire is None:
            wire = self._wire_times[chunk] = self.profile.wire_time(chunk)
        return wire

    def advance(self, bound: tuple) -> bool:
        """The kernel's call: perform, in (when, seq) sequence — the
        order the reference would dispatch them in — the pending steps
        of *all* senders that sort before ``bound``, the ``(when, c,
        seq)`` of whatever comes next outside the ledger.

        What each step does is the reference's own sequence: counters
        fragment by fragment (``wire_time`` is a float accumulator and
        does not associate), loss draws at each fragment's end, the next
        background gap drawn right after the previous packet's counters,
        fault state read when the reference would read it (it cannot
        change in here — whatever changes it is a real event). A step
        made here reads the same ``c``: nothing real is pushed in
        between.

        The step that completes a message resumes its sender, which
        runs arbitrary code: ledger state and the guard are brought up
        to date first, and the kernel is told (True) to look again.
        """
        env = self._fast_env()
        limit, c_limit, seq_limit = bound
        off = self._off
        queue = self._queue
        holder = self._holder
        daemon = self._daemon
        extra = self._fault_extra_latency
        lossy = self._lossy
        c = env.events_scheduled
        seq = self._seq
        while True:
            s = holder
            if off:
                o = off[0]
                if (s is None or o.when < s.when
                        or (o.when == s.when and o.seq < s.seq)):
                    s = o
            elif s is None:
                break
            t = s.when
            if t >= limit and (
                    t > limit or (s.c, s.seq) >= (c_limit, seq_limit)):
                break
            step = s.step
            if step == _GRANT:
                # The packet goes on the wire.
                s.step = _WIRE
                s.when = t + s.wire
                s.c = c
                s.seq = next(seq)
                continue
            if step == _PREP:
                # Packet ready (or background gap over): claim the medium.
                del off[0]
                if holder is None:
                    holder = s
                    s.step = _GRANT
                    s.c = c
                    s.seq = next(seq)
                else:
                    s.step = _QUEUED
                    queue.append(s)
                continue
            if step != _WIRE:
                del off[0]
            elif queue:
                # Off the wire: the medium goes to the next in line.
                holder = queue.popleft()
                holder.step = _GRANT
                holder.when = t
                holder.c = c
                holder.seq = next(seq)
            else:
                holder = None
            if s is daemon:
                # A background packet is through (or the daemon is
                # starting): draw the gap to the next one.
                if step == _WIRE:
                    self._background_packets.value += 1
                    self._wire_time.value += s.wire
                s.step = _PREP
                when = t + self._stream.expovariate(self._background_rate)
            elif step == _WIRE and extra > 0:
                # Injected latency spike: charged outside the medium so
                # other hosts still interleave.
                s.step = _LATENCY
                when = t + extra
            else:
                # The fragment is through: traffic counters, then its
                # loss decision.
                index = s.pos if s.indices is None else s.indices[s.pos]
                self._packets.value += 1
                self._payload_bytes.value += (
                    s.tail_chunk if index == s.final else self._payload)
                self._wire_time.value += s.wire
                if lossy and self._fragment_lost():
                    self._lost_packets.value += 1
                    s.lost.append(index)
                if s.pos == s.end:
                    s.step = _DONE
                    self._holder = holder
                    self._reguard()
                    env.finish_inline(s, s.lost, t)
                    return True
                s.pos += 1
                s.wire = (self._wire_full
                          if s.indices is None and s.pos != s.final
                          else self._wire_of(s))
                s.step = _PREP
                when = t + self._overhead
            s.when = when
            s.c = c
            s.seq = next(seq)
            _insert(off, s)
        self._holder = holder
        self._reguard()
        return False

    def _abort(self, xfer: _Transfer) -> None:
        """An interrupted sender leaves, exactly as the reference path's
        ``try/finally`` does: queued, it withdraws; on the medium, it
        releases it now and the next in line is granted now; no counters
        for the unfinished fragment."""
        env = self._fast_env()
        if xfer.step == _QUEUED:
            self._queue.remove(xfer)
        elif xfer is not self._holder:
            self._off.remove(xfer)
        elif self._queue:
            heir = self._holder = self._queue.popleft()
            heir.step = _GRANT
            heir.when = env.now
            heir.c = env.events_scheduled
            heir.seq = next(self._seq)
        else:
            self._holder = None
        xfer.step = _DONE
        self._reguard()
