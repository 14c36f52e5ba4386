"""CLI: ``python -m repro.modelcheck`` — explore a scope, report the
explored-state count and fingerprint, and on violation write a shrunk,
replayable counterexample trace.

Exit status 1 when a violation was found, 0 otherwise. Output contains
no wall-clock timing: two same-seed runs print byte-identical reports
(CI diffs them).
"""

from __future__ import annotations

import argparse
import json
import sys

from .explorer import Explorer
from .rig import Scope
from .trace import save_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.modelcheck",
        description="Small-scope exhaustive model checking of the Bullet "
                    "rig (replication + locking + linearizability).")
    parser.add_argument("--mode", choices=("dfs", "walk"), default="dfs",
                        help="exhaustive DFS (default) or seeded random walk")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for walk mode (and recorded in stats)")
    scope = parser.add_argument_group("scope bounds")
    scope.add_argument("--clients", type=int, default=2)
    scope.add_argument("--ops", type=int, default=3,
                       help="ops per client (create/read/modify/delete cycle)")
    scope.add_argument("--crashes", type=int, default=1,
                       help="server crash budget (each crash may be "
                            "followed by a restart)")
    scope.add_argument("--losses", type=int, default=0,
                       help="replica-loss budget")
    scope.add_argument("--repairs", type=int, default=0,
                       help="replica-repair budget")
    scope.add_argument("--compactions", type=int, default=0,
                       help="online-compaction budget")
    scope.add_argument("--disks", type=int, default=2)
    scope.add_argument("--p-factor", type=int, default=2)
    scope.add_argument("--tolerance", type=int, default=None,
                       help="failure tolerance the durability invariant "
                            "asserts (default: p-factor; setting it higher "
                            "models a spec/implementation mismatch)")
    scope.add_argument("--workers", type=int, default=2,
                       help="server worker-pool size")
    scope.add_argument("--overlap", action="store_true",
                       help="split ops into go/wait so requests overlap in "
                            "the worker pool")
    scope.add_argument("--tie-depth", type=int, default=0,
                       help="kernel scheduling choice points per transition "
                            "to explore (0 = reference schedule only)")
    scope.add_argument("--max-depth", type=int, default=None)
    scope.add_argument("--payload", type=int, default=512,
                       help="base payload size in bytes")
    scope.add_argument("--inject", choices=("none", "leak", "corrupt"),
                       default="none",
                       help="arm a test-only fault transition")
    walk = parser.add_argument_group("walk mode")
    walk.add_argument("--walks", type=int, default=64)
    walk.add_argument("--steps", type=int, default=32,
                      help="max transitions per walk")
    out = parser.add_argument_group("output")
    out.add_argument("--stats", metavar="PATH", default=None,
                     help="write the exploration stats JSON here")
    out.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write the (shrunk) counterexample trace here")
    out.add_argument("--no-shrink", action="store_true",
                     help="keep the raw counterexample trace")
    return parser


def main(argv: list) -> int:
    args = _build_parser().parse_args(argv)
    scope = Scope(
        clients=args.clients, ops_per_client=args.ops, crashes=args.crashes,
        replica_losses=args.losses, repairs=args.repairs,
        compactions=args.compactions, n_disks=args.disks,
        p_factor=args.p_factor, tolerance=args.tolerance,
        workers=args.workers, overlap=args.overlap, tie_depth=args.tie_depth,
        max_depth=args.max_depth, payload_bytes=args.payload,
        inject="" if args.inject == "none" else args.inject)
    explorer = Explorer(scope, seed=args.seed)
    if args.mode == "dfs":
        stats = explorer.dfs(shrink=not args.no_shrink)
    else:
        stats = explorer.walk(walks=args.walks, steps=args.steps,
                              shrink=not args.no_shrink)
    print(f"modelcheck: mode={stats.mode} seed={stats.seed} "
          f"scope={json.dumps(stats.scope, sort_keys=True)}")
    print(f"explored {stats.states} states, {stats.transitions} transitions "
          f"({stats.replays} replays, {stats.pruned} pruned), "
          f"{stats.leaves} leaves, max depth {stats.max_depth}")
    print(f"fingerprint: {stats.fingerprint}")
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(stats.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"stats written to {args.stats}")
    counterexample = explorer.counterexample
    if counterexample is None:
        print("PASS: no invariant violation found")
        return 0
    shrunk = ""
    if counterexample.shrunk_from is not None:
        shrunk = (f", shrunk from {counterexample.shrunk_from}")
    print(f"VIOLATION ({counterexample.family}): {counterexample.message}")
    print(f"counterexample ({len(counterexample.records)} transitions"
          f"{shrunk}): {', '.join(counterexample.labels())}")
    if args.trace_out:
        save_trace(args.trace_out, scope, counterexample, seed=args.seed,
                   mode=args.mode)
        print(f"trace written to {args.trace_out}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
