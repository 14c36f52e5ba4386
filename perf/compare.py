"""Compare two ``--out`` result files: parent against change.

Per workload and end-to-end metric: both medians, the change in the
*worse* direction against that metric's bound (``BENCHMARK.json``), and
a verdict. ``unresolved`` means the pass-to-pass spread of either side
is wider than the bound, so the medians cannot tell — unless every pass
of one side beats every pass of the other. One pair of files is one
pair of runs; a gain is claimed from at least ten (perf/README.md).
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics a change to the simulator's speed must leave exactly alone.
EXACT = ("events_per_op", "sim_op_p50_ms", "sim_op_p99_ms", "sim_ops_per_s",
         "sim_kb_per_s")


def load_bounds() -> dict:
    """name -> (better, bound) of every end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative change in the worse direction (negative = improved)."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def spread(entry: dict) -> float:
    """Quartile distance over median of one side's passes (0 for the
    metrics that repeat exactly)."""
    if "q1" not in entry:
        return 0.0
    return (entry["q3"] - entry["q1"]) / entry["value"]


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    worse = worse_by(parent["value"], change["value"], better)
    if max(spread(parent), spread(change)) > bound:
        ours, theirs = parent.get("passes"), change.get("passes")
        if ours and theirs:
            sign = 1 if better == "lower" else -1
            if min(sign * v for v in theirs) > max(sign * v for v in ours):
                return "regressed" if worse > bound else "unchanged"
            if max(sign * v for v in theirs) < min(sign * v for v in ours):
                return "improved" if -worse > bound else "unchanged"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


def compare_files(parent_path: Path, change_path: Path) -> int:
    """Print the comparison; returns 1 when anything regressed."""
    bounds = load_bounds()
    parent = json.loads(parent_path.read_text())
    change = json.loads(change_path.read_text())
    for side, data in (("parent", parent), ("change", change)):
        p = data["provenance"]
        print(f"{side}: commit {p['commit'][:12]} seed {p['seed']} "
              f"python {p['python']} nproc {p['nproc']}")
    same_seed = parent["provenance"]["seed"] == change["provenance"]["seed"]
    if not same_seed:
        print("seeds differ: simulated metrics are not expected to be equal")
    regressed = False
    for name in parent["workloads"]:
        if name not in change["workloads"]:
            print(f"== {name}: missing from {change_path}")
            continue
        ours, theirs = parent["workloads"][name], change["workloads"][name]
        print(f"== {name}  passes {ours['passes']} / {theirs['passes']}")
        print(f"  {'metric':<18} {'parent':>14} {'change':>14} "
              f"{'worse by':>9} {'bound':>6}  verdict")
        for metric, (better, bound) in bounds.items():
            a, b = ours["end_to_end"][metric], theirs["end_to_end"][metric]
            result = verdict(a, b, better, bound)
            regressed |= result == "regressed"
            note = ""
            if metric in EXACT and same_seed:
                note = ("  (identical)" if a["value"] == b["value"]
                        else "  (simulated result changed)")
            print(f"  {metric:<18} {a['value']:>14.4f} {b['value']:>14.4f} "
                  f"{worse_by(a['value'], b['value'], better):>+9.2%} "
                  f"{bound:>6.0%}  {result}{note}")
        a_failed = ours["failed"] / ours["attempted"]
        b_failed = theirs["failed"] / theirs["attempted"]
        result = "regressed" if b_failed > a_failed else "unchanged"
        regressed |= result == "regressed"
        print(f"  {'failed_ops_share':<18} {a_failed:>14.4f} "
              f"{b_failed:>14.4f} {'':>9} {'0':>6}  {result}")
    return 1 if regressed else 0
