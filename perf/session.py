"""One workload, measured in this process.

The run protocol: build the plan from the seed, one warm-up pass, then
timed passes until the time budget is used (never fewer than three).
Every pass rebuilds the rig and runs identical ops, so the simulated
numbers and counts must be identical across passes — checked — and the
host numbers are medians over the passes. A traced run adds a span pass
and a profile pass after the timed ones; end-to-end metrics always come
from the untraced passes.
"""

from __future__ import annotations

import cProfile
import resource
import time
from pathlib import Path
from typing import Optional

from .layers import per_layer_metrics
from .measure import quartiles, run_pass, tail_percentile
from .tracing import SpanLog, host_self_shares
from .workloads import WORKLOADS

MIN_PASSES = 3

#: (name, unit, better, clock) of the end-to-end metrics.
END_TO_END = (
    ("setup_s", "s", "lower", "host"),
    ("host_ops_per_s", "1/s", "higher", "host"),
    ("host_peak_rss_mb", "MB", "lower", "host"),
    ("events_per_op", "1/op", "lower", "count"),
    ("sim_op_p50_ms", "ms", "lower", "sim"),
    ("sim_op_p99_ms", "ms", "lower", "sim"),
    ("sim_ops_per_s", "1/s", "higher", "sim"),
    ("sim_kb_per_s", "KB/s", "higher", "sim"),
)


def measure_workload(name: str, seed: int, seconds: float, trace: bool,
                     scale: float, import_s: float,
                     trace_out: Optional[Path] = None) -> dict:
    """Run the protocol for one workload; returns its result record."""
    workload = WORKLOADS[name]
    plan = workload.plan(seed, scale)
    problems: list = []

    def checked(result, label: str, reference=None):
        for failure in result.check_failures:
            problems.append(f"{label}: {failure}")
        if (reference is not None
                and result.fingerprint() != reference.fingerprint()):
            problems.append(
                f"{label}: simulated numbers or counts differ from the "
                f"first timed pass ({result.sim_metrics()} vs "
                f"{reference.sim_metrics()})")
        return result

    checked(run_pass(workload, plan), "warm-up pass")
    # Only the first timed pass is kept whole; of the others the clocks,
    # so memory does not grow with the number of passes.
    first = None
    setups, host_s, cpu_s = [], [], []
    failed = 0
    started = time.perf_counter()
    while True:
        result = checked(run_pass(workload, plan), f"pass {len(host_s) + 1}",
                         first)
        first = first or result
        setups.append(result.setup_s)
        host_s.append(result.host_s)
        cpu_s.append(result.cpu_s)
        failed = max(failed, result.failed)
        elapsed = time.perf_counter() - started
        # Stop where the total lands closest to the budget.
        if (len(host_s) >= MIN_PASSES
                and elapsed + elapsed / len(host_s) / 2 >= seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    host_rates = [first.ops / seconds_taken for seconds_taken in host_s]
    rate_q1, rate_median, rate_q3 = quartiles(host_rates)
    setup_q1, setup_median, setup_q3 = quartiles(setups)
    end_to_end = {
        "setup_s": {"value": import_s + setup_median,
                    "q1": import_s + setup_q1, "q3": import_s + setup_q3,
                    "passes": [import_s + s for s in setups]},
        "host_ops_per_s": {"value": rate_median, "q1": rate_q1,
                           "q3": rate_q3, "passes": host_rates},
        "host_peak_rss_mb": {"value": peak_rss_mb},
    }
    for metric, value in first.sim_metrics().items():
        end_to_end[metric] = {"value": value}
    for metric, unit, _better, _clock in END_TO_END:
        end_to_end[metric]["unit"] = unit

    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "scale": scale,
        "passes": len(host_s),
        "attempted": first.ops,
        "failed": failed,
        "tail_percentile": tail_percentile(first.ops),
        "import_s": import_s,
        "end_to_end": end_to_end,
    }

    if trace:
        log = SpanLog()
        span_pass = checked(run_pass(workload, plan, span_log=log),
                            "span pass", first)
        spans = log.spans()
        for failure in log.conservation_failures(spans):
            problems.append(f"span pass: {failure}")
        if trace_out is not None:
            trace_out.mkdir(parents=True, exist_ok=True)
            log.write(trace_out / f"{name}.spans.jsonl", spans)
        profiler = cProfile.Profile()
        profile_pass = checked(run_pass(workload, plan, profiler=profiler),
                               "profile pass", first)
        shares = host_self_shares(profiler)
        if abs(sum(shares.values()) - 1.0) > 1e-6:
            problems.append(f"profile pass: layer shares sum to "
                            f"{sum(shares.values())!r}, not 1")
        host_q1, host_median, host_q3 = quartiles(host_s)
        layers = per_layer_metrics(
            first, spans, shares,
            bench={
                "host_s": host_median,
                "span_overhead_ratio": span_pass.host_s / host_median,
                "profile_overhead_ratio": profile_pass.host_s / host_median,
                "host_pass_iqr_share": (host_q3 - host_q1) / host_median,
                "wall_over_cpu": sum(host_s) / sum(cpu_s),
            },
            directory_port=first.directory_port,
            client_layer=workload.client_layer)
        record["per_layer"] = layers
        record["span_count"] = len(spans)
        record["orphan_spans"] = log.orphans

    record["problems"] = problems
    record["correct"] = not problems and record["failed"] == 0
    return record

