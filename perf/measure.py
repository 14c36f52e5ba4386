"""One pass of one workload, and the numbers read off it.

A pass rebuilds the rig from the seed, runs the fixed op lists to
completion and checks every output. Two clocks are read: simulated time
(``Environment.now`` — the paper's claim) and host time
(``time.perf_counter`` — what the simulation costs us). Simulated
numbers and counts must repeat exactly from pass to pass; host numbers
are reported as medians over passes.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from . import api
from .workloads import KINDS, NoSpans, Recorder

#: Tail percentiles tried, highest first; the tail metric is named p99.
_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(pct / 100.0 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile that still has at least ten samples beyond
    it in a sample of ``n`` — a tail read off fewer samples is one slow
    op, not a percentile. p99 from 1 000 samples up."""
    for pct in _PERCENTILES:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct
    return 50.0


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def labelled(samples: dict, name: str, **labels) -> list:
    """Values of every sample of the family ``name`` in one section of a
    ``MetricsRegistry.snapshot()`` whose labels include ``labels``."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    return [value for key, value in samples.items()
            if key.partition("{")[0] == name
            and all(label in key for label in wanted)]


@dataclass
class PassResult:
    """Everything measured in one pass."""

    setup_s: float
    host_s: float
    cpu_s: float
    events: int
    sim_s: float
    rec: Recorder
    counters: dict            # registry counter deltas over the timed part
    histograms: dict          # registry histogram (sum, count) deltas
    gauges: dict              # registry gauges, mean over ten checkpoints
    directory_port: Optional[int] = None
    check_failures: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.rec.kinds)

    @property
    def failed(self) -> int:
        """Failed ops. A pass whose caches do not conserve cannot vouch
        for any of its ops, so a failed check fails them all."""
        return self.ops if self.check_failures else self.rec.failed

    def sim_metrics(self) -> dict:
        """The numbers that must repeat exactly: counts and simulated
        time. Keyed by end-to-end metric name."""
        lat = sorted(self.rec.sim_s)
        return {
            "events_per_op": self.events / self.ops,
            "sim_op_p50_ms": percentile(lat, 50.0) * 1e3,
            "sim_op_p99_ms": percentile(lat, tail_percentile(len(lat))) * 1e3,
            "sim_ops_per_s": self.ops / self.sim_s,
            "sim_kb_per_s": self.rec.payload_bytes / api.KB / self.sim_s,
        }

    def fingerprint(self) -> tuple:
        """Exact-repeat witness: simulated metrics, op outcomes and every
        registry counter."""
        return (self.events, self.sim_s, self.ops, self.failed,
                self.rec.payload_bytes, tuple(self.rec.sim_s),
                tuple(sorted(self.counters.items())))

    def latency_by_kind(self) -> dict:
        by_kind: dict = {kind: [] for kind in KINDS}
        for kind, sim_s in zip(self.rec.kinds, self.rec.sim_s):
            by_kind[kind].append(sim_s)
        return {kind: sorted(values) for kind, values in by_kind.items()}


def _conservation_failures(counters: dict) -> list:
    """The cache conservation checks, on registry counter deltas."""
    failures = []

    def total(name: str, **labels) -> float:
        return sum(labelled(counters, name, **labels))

    hits = total("repro_cache_hits_total")
    misses = total("repro_cache_misses_total")
    lookups = total("repro_cache_lookups_total")
    if hits + misses != lookups:
        failures.append(f"bullet cache: {hits} hits + {misses} misses "
                        f"!= {lookups} lookups")
    hits = total("repro_client_cache_hits_total")
    misses = total("repro_client_cache_misses_total")
    lookups = total("repro_client_cache_lookups_total")
    if hits + misses != lookups:
        failures.append(f"workstation caches: {hits} hits + {misses} "
                        f"misses != {lookups} lookups")
    # The NFS buffer cache exports no lookup counter, so its check is
    # against the disk beneath it: every miss is exactly one disk read
    # and every write-through exactly one disk write.
    misses = total("repro_buffercache_misses_total")
    reads = total("repro_disk_reads_total", disk="nfs-disk")
    throughs = total("repro_buffercache_write_throughs_total")
    writes = total("repro_disk_writes_total", disk="nfs-disk")
    if misses != reads or throughs != writes:
        failures.append(f"nfs buffer cache: {misses} misses vs {reads} disk "
                        f"reads, {throughs} write-throughs vs {writes} "
                        f"disk writes")
    return failures


def run_pass(workload, plan, span_log=None, profiler=None) -> PassResult:
    """Set up a fresh rig and run the workload's clients to completion.

    ``span_log`` (the span pass) makes the rig hand one tracer to every
    program constructor that takes one, and records spans through it;
    ``profiler`` (the profile pass) is switched on for the timed part.
    Both are None in an ordinary timed pass.
    """
    gc.collect()
    begun = time.perf_counter()
    world = workload.setup(plan, span_log is not None)
    setup_s = time.perf_counter() - begun

    rig = world.rig
    env = rig.env
    # Gauges are read at every tenth of the ops and averaged: the last
    # op of a pass leaves degenerate values (every client has deleted
    # all it created, so the free lists are whole again).
    rec = Recorder(rig.metrics, max(plan.timed_ops // 10, 1))
    if span_log is not None:
        span_log.attach(env, rig.tracer)
    before = rig.metrics.snapshot()
    events0, sim0 = env.events_scheduled, env.now
    clients = workload.clients(world, plan, rec, span_log or NoSpans)
    cpu0, host0 = time.process_time(), time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        for proc in [env.process(client) for client in clients]:
            env.run(until=proc)
    finally:
        if profiler is not None:
            profiler.disable()
    host_s = time.perf_counter() - host0
    cpu_s = time.process_time() - cpu0
    after = rig.metrics.snapshot()

    counters = {key: value - before["counters"].get(key, 0)
                for key, value in after["counters"].items()}
    histograms = {}
    for key, hist in after["histograms"].items():
        old = before["histograms"].get(key, {"sum": 0.0, "count": 0})
        histograms[key] = (hist["sum"] - old["sum"],
                           hist["count"] - old["count"])
    result = PassResult(
        setup_s=setup_s, host_s=host_s, cpu_s=cpu_s,
        events=env.events_scheduled - events0, sim_s=env.now - sim0,
        rec=rec, counters=counters, histograms=histograms,
        gauges={key: statistics.fmean(s[key] for s in rec.gauge_samples)
                for key in rec.gauge_samples[0]},
        directory_port=rig.directory.port if rig.directory else None)
    result.check_failures = _conservation_failures(counters)
    if result.ops != plan.timed_ops:
        result.check_failures.append(
            f"{result.ops} ops completed, {plan.timed_ops} planned")
    return result
