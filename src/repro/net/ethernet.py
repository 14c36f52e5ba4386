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

from typing import Optional

from ..obs import MetricsRegistry, RegistryStats
from ..profiles import EthernetProfile
from ..sim import Environment, Resource, SeededStream, Tracer

__all__ = ["Ethernet", "EthernetStats"]


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
    """A single shared Ethernet segment."""

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
        self._medium = Resource(env, capacity=1)
        self._tracer = tracer
        self._stream = stream
        # Fault-plane injection seams (see repro.faults): a partition
        # drops every fragment, a loss window drops a seeded fraction,
        # a latency spike charges extra time per fragment.
        self._fault_partitioned = False
        self._fault_loss = 0.0
        self._fault_loss_stream: Optional[SeededStream] = None
        self._fault_extra_latency = 0.0
        if profile.loss_probability > 0 and stream is None:
            raise ValueError("packet loss requires a seeded stream")
        if background_load:
            if stream is None:
                raise ValueError("background load requires a seeded stream")
            # Intentional daemon fork: seeded background traffic competes
            # for the medium for the whole experiment, detached by design.
            env.process(self._background_traffic())  # repro: allow(S001)

    @property
    def lossy(self) -> bool:
        """True when fragments can currently be lost — by the profile's
        steady-state loss or by an injected partition/loss window. The
        RPC layer consults this to arm its retransmission machinery."""
        return (
            self.profile.loss_probability > 0
            or self._fault_partitioned
            or self._fault_loss > 0
        )

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
        idx = list(indices)
        n = len(idx)
        lost = []
        i = 0
        while i < n:
            # Analytic segment: collapse a run of fragments into one
            # "medium busy until T" timeout when provably unobservable —
            # the transfer is deterministic (no loss source, no latency
            # spike: nothing draws RNG or forks the outcome), the medium
            # is free (no holder whose release we would reorder against),
            # and no other event fires strictly before the segment ends
            # (can_collapse at this instant, then the peek horizon; see
            # sim.core). Timing is the same left fold of per-hop delays
            # the exact path would walk, so the resume instant is
            # bit-identical.
            if (env.can_collapse(env.now) and not self.lossy
                    and self._fault_extra_latency == 0.0
                    and self._medium.idle):
                horizon = env.peek()
                t = env.now
                j = i
                while j < n:
                    wire = wire_last if idx[j] == total - 1 else wire_full
                    t_next = (t + overhead) + wire
                    if t_next >= horizon:
                        break  # an observer fires at or before this hop
                    t = t_next
                    j += 1
                if j > i:
                    delays = []
                    for k in range(i, j):
                        delays.append(overhead)
                        delays.append(
                            wire_last if idx[k] == total - 1 else wire_full)
                    yield env.timeout_batch(delays)
                    # Flush traffic counters fragment by fragment: the
                    # wire-time counter is a float accumulator, and only
                    # per-fragment increments reproduce the reference
                    # rounding bit for bit.
                    inc_packets = self._packets.inc
                    inc_payload = self._payload_bytes.inc
                    inc_wire = self._wire_time.inc
                    for k in range(i, j):
                        last = idx[k] == total - 1
                        inc_packets(1)
                        inc_payload(last_chunk if last else payload)
                        inc_wire(wire_last if last else wire_full)
                    i = j
                    continue
            index = idx[i]
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
                self.stats.lost_packets += 1
                lost.append(index)
            i += 1
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

    @property
    def medium_queue_length(self) -> int:
        return self._medium.queue_length

    def _background_traffic(self):
        """Seeded background packets at the profile's mean utilization."""
        p = self.profile
        if p.background_utilization <= 0:
            return
        wire = p.wire_time(p.background_packet_bytes)
        rate = p.background_utilization / wire  # packets per second
        env = self.env
        stream = self._stream
        medium = self._medium
        inc_bg = self._background_packets.inc
        inc_wire = self._wire_time.inc
        # Inter-arrival pre-drawn by a previous batch round, else None.
        delay = None
        while True:
            if delay is None:
                delay = stream.expovariate(rate)
            # Collapse whole idle-gap packet trains into one timeout.
            # Drawing the next inter-arrival "early" (at decision time
            # instead of after the previous wire) is exact because the
            # guard proves nothing else touches the stream inside the
            # window; the draw *sequence* is what determinism pins.
            if env.can_collapse(env.now) and medium.idle:
                horizon = env.peek()
                t = env.now
                batch: list = []
                # The length cap bounds one collapse round when nothing
                # else is scheduled at all (horizon +inf: this daemon is
                # the whole simulation) — each round then advances the
                # clock and loops, exactly like the reference would.
                while len(batch) < 8192:
                    t_next = (t + delay) + wire
                    if t_next >= horizon:
                        break  # this packet would overlap an observer
                    batch.append(delay)
                    batch.append(wire)
                    t = t_next
                    delay = stream.expovariate(rate)
                if batch:
                    for _ in range(len(batch) // 2):
                        inc_bg(1)
                        inc_wire(wire)
                    yield env.timeout_batch(batch)
                    continue  # `delay` holds the next packet's gap
            yield env.timeout(delay)
            delay = None
            grant = medium.request()
            yield grant
            yield env.timeout(wire)
            medium.release(grant)
            inc_bg(1)
            inc_wire(wire)
