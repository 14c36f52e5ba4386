#!/usr/bin/env python3
"""The repo benchmark: four closed-loop workloads, two clocks.

    python3 perf/run.py                          # all four workloads
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --trace 1 --trace-out DIR --out result.json
    python3 perf/run.py --compare parent.json change.json

Each workload runs in one fresh single-threaded child process, one at a
time, with PYTHONHASHSEED=0. Every metric is printed by name with its
unit, every output is checked, and the exit code is non-zero when any
check fails. With ``--workload`` the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not __package__:
    # Run as a script: import the benchmark as the package ``perf`` from
    # the checkout root, not as loose modules that could shadow others.
    sys.path[0] = str(ROOT)

WORKLOAD_NAMES = ("small_file_rpc", "large_file_churn", "nfs_block_io",
                  "workstation_coherence")
QUICK_SCALE = 1 / 20
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of timed passes per workload")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="add the span pass and the profile pass and "
                             "report the per-layer metrics")
    parser.add_argument("--trace-out", type=Path,
                        help="directory for the span pass's JSON lines")
    parser.add_argument("--out", type=Path, help="write the results here")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of the ops (smoke runs and tests)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("PARENT", "CHANGE"),
                        help="compare two --out files and exit")
    parser.add_argument("--child", choices=("measure", "import"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--import-s", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ children


def child_import() -> int:
    """Child: time a cold import of the program and the benchmark."""
    started = time.perf_counter()
    from perf import session  # noqa: F401  (imports the program too)
    print(json.dumps({"import_s": time.perf_counter() - started}))
    return 0


def child_measure(args) -> int:
    """Child: measure one workload in this process, print its record."""
    from perf.session import measure_workload
    record = measure_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        QUICK_SCALE if args.quick else 1.0, args.import_s,
        trace_out=args.trace_out)
    print(json.dumps(record))
    return 0


def spawn(extra: list) -> dict:
    """Run one child to completion and parse the JSON it prints last."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py")] + extra, env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"perf: child {extra} exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args, name: str) -> dict:
    """Import samples first (median), then the measuring child."""
    import_s = statistics.median(
        spawn(["--child", "import"])["import_s"]
        for _ in range(IMPORT_SAMPLES))
    extra = ["--child", "measure", "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--import-s", repr(import_s)]
    if args.quick:
        extra.append("--quick")
    if args.trace_out is not None:
        extra += ["--trace-out", str(args.trace_out.resolve())]
    return spawn(extra)


# ------------------------------------------------------------------- output


def print_record(record: dict) -> None:
    from perf.layers import PER_LAYER
    from perf.session import END_TO_END
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['passes']} timed passes x {record['attempted']} ops"
          + ("  (quick scale)" if record["scale"] != 1.0 else ""))
    for name, unit, better, clock in END_TO_END:
        entry = record["end_to_end"][name]
        line = (f"  {name:<18} {entry['value']:>14.4f} {unit:<5} "
                f"[{clock}, {better} is better]")
        if "q1" in entry:
            line += f"  q1 {entry['q1']:.4f}  q3 {entry['q3']:.4f}"
        if name == "sim_op_p99_ms":
            line += (f"  p{record['tail_percentile']:g} of "
                     f"{record['attempted']} samples")
        print(line)
    share = record["failed"] / record["attempted"]
    print(f"  {'failed_ops_share':<18} {share:>14.4f} {'share':<5} "
          f"[count, {record['failed']} of {record['attempted']}]")
    if "per_layer" in record:
        print(f"  -- per layer ({record['span_count']} spans, "
              f"{record['orphan_spans']} outside any client op)")
        for name, unit, _better in PER_LAYER:
            print(f"  {name:<36} {record['per_layer'][name]:>16.6g} {unit}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def contract_line(record: dict, trace: int) -> str:
    """The driver's result object: per-layer metrics in a traced run,
    end-to-end metrics otherwise."""
    from perf.layers import PER_LAYER
    if trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
    else:
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in record["end_to_end"].items()}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def provenance(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"      # a checkout that is not a git repository
    return {"commit": commit, "seed": args.seed, "seconds": args.seconds,
            "quick": args.quick, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        from perf.compare import compare_files
        return compare_files(*args.compare)
    if args.child == "import":
        return child_import()
    if args.child == "measure":
        return child_measure(args)
    # The program must be there before anything is spent on measuring it.
    from perf import api  # noqa: F401
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = []
    for name in names:
        records.append(run_workload(args, name))
        print_record(records[-1])
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"provenance": provenance(args),
             "workloads": {r["workload"]: r for r in records}},
            indent=1, sort_keys=True) + "\n")
    correct = all(record["correct"] for record in records)
    if args.workload:
        print(contract_line(records[0], args.trace))
    else:
        print("all checks passed" if correct else "CHECKS FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
