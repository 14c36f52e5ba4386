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

from bisect import insort
from collections import deque
from typing import Optional

from ..errors import ConsistencyError
from ..obs import MetricsRegistry, RegistryStats
from ..profiles import EthernetProfile
from ..sim import Environment, Event, Resource, SeededStream, Tracer

__all__ = ["Ethernet", "EthernetStats"]

# What a ledger sender's pending step finishes (see Ethernet.advance):
# the daemon's start-up, a packet's preparation (or a background gap),
# the medium's grant, a packet's wire time, an injected latency, the
# hop an interrupted sender abandoned (it only moves the clock).
# _QUEUED and _DONE senders have no pending step.
_START, _PREP, _GRANT, _WIRE, _LATENCY, _ABANDONED, _QUEUED, _DONE = range(8)

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

    __slots__ = ("step", "when", "c", "seq", "indices", "end", "tail_pos",
                 "tail_chunk", "chunk", "wire", "stop", "left", "lost")


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
    ):
        self.env = env
        self.profile = profile
        self.stats = EthernetStats(metrics, segment="ether")
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
        # Foreground senders not yet _DONE, abandoned hops included: the
        # daemon's steps resume nobody, theirs can.
        self._live = 0
        #: The instant of the earliest pending step (the kernel's view).
        self.guard = _INF
        #: The instant of the earliest pending step that can resume a
        #: process: the guard while a foreground sender is on the
        #: ledger, +inf while only the daemon is.
        self.wake = _INF
        self._seq = None if env.is_reference else env.add_source(self)
        # The profile is frozen: its per-packet constants, read once.
        self._payload = profile.max_payload
        self._overhead = profile.per_packet_overhead
        self._wire_full = profile.wire_time(profile.max_payload)
        self._wire_times: dict = {}  # tail chunk size -> wire time
        self._sending = 0  # reference path: send_fragments calls in flight
        self._background_rate = 0.0  # packets per second
        if background_load and self._medium is not None:
            # The reference path's daemon: seeded background traffic
            # competes for the medium for the whole experiment.
            self._background = env.process(self._background_traffic())
        elif background_load and profile.background_utilization > 0:
            # The same daemon as a ledger sender. Its first step stands
            # where the process's start-up event would: the first gap is
            # drawn when that is performed, not here.
            daemon = self._daemon = _Transfer(env)
            daemon.indices = daemon.lost = None
            # Every wire end of the daemon's is a stop (see _aim): it
            # never takes the full-size foreground path of advance.
            daemon.left = 0
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
        Each index is sent once: a repeated or out-of-range one is a
        ``ValueError`` before anything joins the medium.
        """
        final = self.packets_for(nbytes) - 1
        if indices and (len(set(indices)) != len(indices)
                        or min(indices) < 0 or max(indices) > final):
            raise ValueError(
                f"fragment indices must be distinct and in [0, {final}], "
                f"got {indices}")
        if self._medium is not None:
            self._sending += 1
            try:
                return (yield from self._send_per_fragment(nbytes, indices))
            finally:
                self._sending -= 1
        if indices is not None and not indices:
            return []
        xfer = self._join(nbytes, final, indices)
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
            self.stats.packets.inc()
            self.stats.payload_bytes.inc(chunk)
            self.stats.wire_time.inc(wire)
            if self._fragment_lost():
                self.stats.lost_packets.inc()
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
            self.stats.background_packets.inc()
            self.stats.wire_time.inc(wire)

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
                and all(s is daemon or s.step == _ABANDONED for s in self._off)
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
                "a tie hook was installed over an Ethernet segment, "
                "whose medium ledger it cannot see; install the hook "
                "before building the segment")
        return env

    def _pend(self, s: _Transfer, step: int, when: float) -> None:
        """``s``'s next step, made outside :meth:`advance`, is off the
        medium: ``step`` finishes at ``when``."""
        self._pend_off(s, step, when, self._fast_env().events_scheduled)
        self._reguard()

    def _reguard(self) -> None:
        """Tell the kernel the instant of the earliest pending step."""
        guard = self._off[0].when if self._off else _INF
        holder = self._holder
        if holder is not None and holder.when < guard:
            guard = holder.when
        self.guard = guard
        self.wake = guard if self._live else _INF
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

    def _join(self, nbytes: int, final: int, indices) -> _Transfer:
        """A new foreground sender of fragments up to index ``final``:
        its first packet is ready one host overhead from now."""
        xfer = _Transfer(self.env)
        xfer.indices = indices
        xfer.end = final if indices is None else len(indices) - 1
        # Only two distinct fragment sizes exist per message (full
        # payload and the tail), and the tail is one fragment: where it
        # falls in sending order, if it is sent at all.
        if indices is None:
            xfer.tail_pos = final
        else:
            xfer.tail_pos = indices.index(final) if final in indices else -1
        xfer.tail_chunk = nbytes - self._payload * final if nbytes else 0
        xfer.lost = []
        self._live += 1
        self._aim(xfer, 0)
        self._pend(xfer, _PREP, self.env.now + self._overhead)
        return xfer

    def _aim(self, s: _Transfer, pos: int) -> None:
        """``s`` is up to the fragment at sending position ``pos``: size
        it (``chunk`` and ``wire``), and note the next position whose
        wire end :meth:`advance` has to look at (``stop``): the tail,
        the fragment right before it (the size changes after it), or the
        message's last. Each fragment before the stop is full-size and
        leaves a full-size one next; ``left`` counts them down, so ``s``
        is at position ``stop - left``."""
        tail = s.tail_pos
        if pos == tail:
            chunk = s.tail_chunk
            wire = self._wire_times.get(chunk)
            if wire is None:
                wire = self._wire_times[chunk] = self.profile.wire_time(chunk)
            s.chunk = chunk
            s.wire = wire
            s.stop = pos
        else:
            s.chunk = self._payload
            s.wire = self._wire_full
            s.stop = tail - 1 if pos < tail else s.end
        s.left = s.stop - pos

    def advance(self, bound: tuple) -> bool:
        """The kernel's call: perform, in (when, seq) sequence — the
        order the reference would dispatch them in — the pending steps
        of *all* senders that sort before ``bound``, the ``(when, c,
        seq)`` of whatever comes next outside the ledger.

        What each step does is the reference's own sequence: counters
        fragment by fragment (``wire_time`` is a float accumulator and
        does not associate: it is summed in a local, in the same order;
        the ints of full-size foreground packets are added on the way
        out), loss draws at each fragment's end, the next background gap
        drawn right after the previous packet's counters, fault state
        read when the reference would read it (it cannot change in here
        — whatever changes it is a real event). A step made here reads
        the same ``c``: nothing real is pushed in between.

        One loop per busy stretch (DESIGN.md §10, ledger rule 4): once a
        wire end is the next step due, the inner loop performs hand-off
        after hand-off, each only while it is *strictly* the next thing
        due — before every pending step and before the bound's instant;
        ``m`` is the earliest of those. The steps it makes and performs
        at once take no ``seq``; the preparations it makes that are not
        yet due stay in locals (``p`` at ``pw``, the daemon's gap end
        ``gw``; on a tie ``p`` is the older) and the holder's ``step``
        reads ``_QUEUED``. Whatever stops it, those are left pending in
        creation order — the locals, then the holder's step — and the
        general loop takes over.

        The step that completes a message resumes its sender, which
        runs arbitrary code: ledger state, counters and the guard are
        brought up to date first, and the kernel is told (True) to look
        again.
        """
        env = self._fast_env()
        limit, c_limit, seq_limit = bound
        off = self._off
        queue = self._queue
        holder = self._holder
        daemon = self._daemon
        extra = self._fault_extra_latency
        lossy = self._lossy
        overhead = self._overhead
        stats = self.stats
        packets = stats.packets.value
        payload_bytes = stats.payload_bytes.value
        background_packets = stats.background_packets.value
        wire_time = stats.wire_time.value
        full = 0  # full-size foreground packets through the inner loop
        c = env.events_scheduled
        finished = None
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
            if s is not holder:
                del off[0]
            m = off[0].when if off and off[0].when < limit else limit
            if step == _PREP:
                # Packet ready (or background gap over): claim the
                # medium; granted at once, it goes on the wire.
                if holder is not None:
                    s.step = _QUEUED
                    queue.append(s)
                    continue
                holder = s
                if t >= m:
                    self._pend_medium(s, _GRANT, t, c)
                    continue
                step = _GRANT
            if step == _GRANT:
                # The packet goes on the wire.
                t += s.wire
                if t >= m:
                    self._pend_medium(s, _WIRE, t, c)
                    continue
            elif step == _START:
                # The daemon starts: the gap to its first packet.
                self._pend_off(s, _PREP, t + self._stream.expovariate(
                    self._background_rate), c)
                continue
            elif step == _LATENCY:
                # An injected latency spike is over: the fragment is
                # through, then its next packet is prepared.
                packets += 1
                payload_bytes += s.chunk
                wire_time += s.wire
                left = s.left
                pos = s.stop - left
                if lossy:
                    self._draw_loss(s, pos)
                if pos == s.end:
                    s.step = _DONE
                    self._live -= 1
                    finished = s
                    break
                if left:
                    s.left = left - 1
                else:
                    self._aim(s, pos + 1)
                self._pend_off(s, _PREP, t + overhead, c)
                continue
            elif step == _ABANDONED:
                # The reference's timeout of a hop nobody waits for any
                # more: it fires, resuming nobody.
                s.step = _DONE
                self._live -= 1
                env.finish_inline(Event(env), None, t)
                continue
            # The busy stretch: h leaves the wire at t, the next step.
            h = s
            h.step = _QUEUED
            p = None  # a foreground preparation made here, ready at pw
            pw = gw = _INF  # gw: the daemon's gap end, drawn here
            m0 = m  # the earliest of the off-medium list and the bound
            plain = not (lossy or extra)
            wire_full = self._wire_full
            while True:
                left = h.left
                if left and plain:
                    full += 1
                    wire_time += wire_full
                    h.left = left - 1
                    lw = t + overhead
                elif h is daemon:
                    # A background packet is through: draw the gap to
                    # the next one.
                    background_packets += 1
                    wire_time += h.wire
                    gw = t + self._stream.expovariate(self._background_rate)
                    t2 = gw + h.wire
                    if t2 < m and p is None and not queue:
                        # Alone on the medium: the gap, the grant and the
                        # next packet's wire end are each the next step.
                        gw = _INF
                        t = t2
                        continue
                    if gw < m:
                        m = gw
                    lw = _INF
                elif extra:
                    # Injected latency spike: charged outside the medium
                    # so other hosts still interleave. The medium goes
                    # to the next in line now.
                    h.step = _LATENCY  # left pending on the way out
                    holder = queue.popleft() if queue else None
                    step = _GRANT
                    break
                else:
                    # A stop, or a lossy segment: the fragment is
                    # through, then its loss decision.
                    packets += 1
                    payload_bytes += h.chunk
                    wire_time += h.wire
                    pos = h.stop - left
                    if lossy:
                        self._draw_loss(h, pos)
                    if pos == h.end:
                        h.step = _DONE
                        self._live -= 1
                        finished = h
                        holder = queue.popleft() if queue else None
                        step = _GRANT
                        break
                    if left:
                        h.left = left - 1
                    else:
                        self._aim(h, pos + 1)
                    lw = t + overhead
                if queue:
                    # The medium goes to the next in line, at once: its
                    # grant is the next step.
                    heir = queue.popleft()
                    t2 = t + heir.wire
                    if lw <= t2 and t2 < m:
                        # The leaver's next packet is ready before the
                        # heir is through (on a tie it is the older
                        # step): it queues, and the heir's wire end is
                        # the next step.
                        queue.append(h)
                        h = heir
                        t = t2
                        continue
                    if t >= m:
                        # Only the first pass gets here: the general loop
                        # picked its wire end on m, at the bound's
                        # instant or older than a step of that instant.
                        # The heir's grant, made now, is newer: it is
                        # left pending, then the leaver's next step.
                        holder = heir
                        self._pend_medium(heir, _GRANT, t, c)
                        if h is daemon:
                            self._pend_off(h, _PREP, gw, c)
                            gw = _INF
                        else:
                            self._pend_off(h, _PREP, lw, c)
                        break
                    if heir is daemon and t2 < m and queue and p is None:
                        # A background packet, through before the
                        # leaver's next one is ready: its end is the
                        # next step. Count it, draw the gap to the next
                        # one and hand the medium on at once.
                        background_packets += 1
                        wire_time += heir.wire
                        gw = t2 + self._stream.expovariate(
                            self._background_rate)
                        heir = queue.popleft()
                        t2 += heir.wire
                        # The leaver's preparation is older than both
                        # the gap end and the new heir's wire end.
                        if lw <= t2 and lw < m and lw <= gw:
                            queue.append(h)
                        else:
                            p = h
                            pw = lw
                            if lw < m:
                                m = lw
                        if gw < m:
                            m = gw
                    elif gw <= t2 and lw <= t2 and t2 < m0 and p is None:
                        # The background gap ends while the heir is on
                        # the wire: the daemon and the leaver queue in
                        # (when, seq) order, the gap end first on a tie
                        # (the older step).
                        daemon.step = _QUEUED
                        if lw < gw:
                            queue.append(h)
                            queue.append(daemon)
                        else:
                            queue.append(daemon)
                            queue.append(h)
                        gw = _INF
                        m = m0
                        h = heir
                        t = t2
                        continue
                    elif lw < m and lw <= t2:
                        queue.append(h)
                    elif h is not daemon:
                        # Not ready before the heir is through: pending.
                        # One foreground preparation is kept in a local,
                        # and when p and gw tie p is the older: a gw
                        # older than this one is left pending first.
                        if p is not None:
                            self._pend_off(p, _PREP, pw, c)
                        if lw == gw:
                            self._pend_off(daemon, _PREP, gw, c)
                            gw = _INF
                        m0 = (off[0].when if off and off[0].when < limit
                              else limit)
                        p = h
                        pw = lw
                        if lw < m:
                            m = lw
                    h = heir
                    t = t2
                else:
                    # The medium is free at t: the earliest preparation
                    # claims it.
                    t2 = lw + h.wire
                    if t2 < m and p is None:
                        # Alone on the medium: the leaver's preparation,
                        # its grant and its wire end are each the next
                        # step.
                        t = t2
                        continue
                    if h is not daemon:
                        if p is not None:
                            self._pend_off(p, _PREP, pw, c)
                        if lw == gw:
                            self._pend_off(daemon, _PREP, gw, c)
                            gw = _INF
                        m0 = (off[0].when if off and off[0].when < limit
                              else limit)
                        p = h
                        pw = lw
                    e = pw if pw <= gw else gw
                    if e < m0:
                        if e == pw:
                            s = p
                            p = None
                            pw = _INF
                        else:
                            s = daemon
                            gw = _INF
                    elif m0 < limit and off[0].step == _PREP:
                        s = off.pop(0)
                        e = m0
                        m0 = (off[0].when if off and off[0].when < limit
                              else limit)
                    else:
                        holder = None
                        break
                    s.step = _QUEUED
                    m = min(m0, pw, gw)
                    if e >= m:
                        # Its grant ties with an older step.
                        holder = s
                        t = e
                        step = _GRANT
                        break
                    h = s
                    t = e + s.wire
                if t < m:
                    continue
                if gw <= t and gw < pw and gw < m0:
                    # The background gap is over while h is on the wire.
                    daemon.step = _QUEUED
                    queue.append(daemon)
                    gw = _INF
                    m = m0 if m0 < pw else pw
                    if t < m:
                        continue
                # Preparations due while h is on the wire (older than its
                # wire end) join the queue, in (when, seq) order.
                while True:
                    e = pw if pw <= gw else gw
                    if e < m0:
                        if e > t:
                            break
                        if e == pw:
                            queue.append(p)
                            p = None
                            pw = _INF
                        else:
                            daemon.step = _QUEUED
                            queue.append(daemon)
                            gw = _INF
                    elif m0 <= t and m0 < limit and off[0].step == _PREP:
                        s = off.pop(0)
                        s.step = _QUEUED
                        queue.append(s)
                        m0 = (off[0].when if off and off[0].when < limit
                              else limit)
                    else:
                        break
                m = min(m0, pw, gw)
                if t < m:
                    continue
                holder = h
                step = _WIRE
                break
            # Leaving the busy stretch: the preparations kept in locals
            # are left pending first (they are older than the holder's
            # step, and on a tie p is the older), then the holder's step,
            # unless already left pending: its grant or wire end, at t.
            if p is not None:
                self._pend_off(p, _PREP, pw, c)
            if gw < _INF:
                self._pend_off(daemon, _PREP, gw, c)
            if holder is not None and holder.step == _QUEUED:
                self._pend_medium(holder, step, t, c)
            if finished is not None:
                break
            if extra and h.step == _LATENCY:
                self._pend_off(h, _LATENCY, t + extra, c)
        if full:
            packets += full
            payload_bytes += full * self._payload
        self._holder = holder
        stats.packets.value = packets
        stats.payload_bytes.value = payload_bytes
        stats.background_packets.value = background_packets
        stats.wire_time.value = wire_time
        self._reguard()
        if finished is None:
            return False
        env.finish_inline(finished, finished.lost, t)
        return True

    def _draw_loss(self, s: _Transfer, pos: int) -> None:
        """``s``'s fragment at sending position ``pos`` is through: its
        loss decision."""
        if self._fragment_lost():
            self.stats.lost_packets.value += 1
            s.lost.append(pos if s.indices is None else s.indices[pos])

    def _pend_off(self, s: _Transfer, step: int, when: float, c: int) -> None:
        """``s``'s next step is off the medium: ``step`` finishes at
        ``when``, ordered by ``c`` and a fresh ``seq``."""
        s.step = step
        s.when = when
        s.c = c
        s.seq = next(self._seq)
        _insert(self._off, s)

    def _pend_medium(self, s: _Transfer, step: int, when: float,
                     c: int) -> None:
        """The medium is ``s``'s: its grant or wire end, ``step``,
        finishes at ``when``, ordered by ``c`` and a fresh ``seq``."""
        s.step = step
        s.when = when
        s.c = c
        s.seq = next(self._seq)

    def _abort(self, xfer: _Transfer) -> None:
        """An interrupted sender leaves, exactly as the reference path's
        ``try/finally`` does: queued, it withdraws; on the medium, it
        releases it now and the next in line is granted now; no counters
        for the unfinished fragment.

        The hop it was in the middle of — a preparation, a wire time or
        an injected latency — stays pending as an abandoned step, as the
        reference's timeout stays on its heap: it resumes nobody, but it
        moves the clock when it comes due (so a drained ``run()`` ends
        there), and until then it holds the guard back."""
        env = self._fast_env()
        step = xfer.step
        if step == _QUEUED:
            self._queue.remove(xfer)
        elif xfer is self._holder:
            if self._queue:
                heir = self._holder = self._queue.popleft()
                self._pend_medium(heir, _GRANT, env.now,
                                  env.events_scheduled)
            else:
                self._holder = None
            if step == _WIRE:
                insort(self._off, xfer, key=lambda s: (s.when, s.seq))
        if step in (_PREP, _WIRE, _LATENCY):
            xfer.step = _ABANDONED
        else:
            xfer.step = _DONE
            self._live -= 1
        self._reguard()
