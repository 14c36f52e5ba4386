"""``python -m repro.obs`` — the observability plane's CLI.

Default mode builds a small Bullet testbed, drives a seeded workload
through the RPC plane, and dumps the shared metrics registry::

    python -m repro.obs                    # Prometheus text exposition
    python -m repro.obs --format json      # canonical JSON snapshot
    python -m repro.obs --seed 7           # different workload seed

``bench`` regenerates the committed artifacts — the ``BENCH_<name>.json``
measurements and the paper tables under ``benchmarks/results/`` — from
the experiment table in :mod:`repro.bench.experiments` (run it from the
repository root)::

    python -m repro.obs bench              # rewrite every artifact
    python -m repro.obs bench coherence    # rewrite BENCH_coherence.json only
    python -m repro.obs bench fig3_nfs     # rewrite benchmarks/results/fig3_nfs.txt
    python -m repro.obs bench --check      # write nothing: byte-compare
                                           # fresh runs against the
                                           # committed files (diff, exit 1)
"""

from __future__ import annotations

import argparse
import sys

from ..bench import make_rig
from ..bench.experiments import EXPERIMENTS, check, write
from ..errors import BadRequestError
from ..sim import run_process
from ..units import KB
from .export import render_json, render_text

#: The snapshot workload: whole files created, read twice (one cold,
#: one warm probe each), the middle one deleted.
SNAPSHOT_SIZES = (1 * KB, 16 * KB, 64 * KB)


def _snapshot(seed: int, fmt: str) -> str:
    rig = make_rig(seed=seed, with_nfs=False, background_load=False)
    env, client = rig.env, rig.bullet_client
    caps = [run_process(env, client.create(bytes(size), 1))
            for size in SNAPSHOT_SIZES]
    for cap in caps:
        run_process(env, client.read(cap))
        run_process(env, client.read(cap))
    run_process(env, client.delete(caps[1]))
    if fmt == "json":
        return render_json(rig.metrics)
    return render_text(rig.metrics)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Dump the deterministic metrics registry, or emit "
                    "the bench artifact.",
    )
    parser.add_argument("--seed", type=int, default=1989,
                        help="workload seed (default: 1989)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="snapshot rendering")
    sub = parser.add_subparsers(dest="command")
    bench = sub.add_parser("bench", help="regenerate the committed bench "
                                         "artifacts")
    bench.add_argument("names", nargs="*", metavar="NAME",
                       help="experiments to run, or 'all' (the default)")
    bench.add_argument("--check", action="store_true",
                       help="write nothing: byte-compare each fresh run "
                            "against its committed artifact, print a "
                            "unified diff and exit 1 on any mismatch")
    args = parser.parse_args(argv)

    if args.command == "bench":
        names = args.names
        if not names or "all" in names:
            names = list(EXPERIMENTS)
        unknown = [name for name in names if name not in EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiment(s) {unknown}; choose from "
                         f"{list(EXPERIMENTS)} or 'all'")
        mismatch = False
        try:
            for name in names:
                if args.check:
                    diff = check(name)
                    print(diff or f"ok {name}\n", end="")
                    mismatch = mismatch or bool(diff)
                else:
                    print(f"wrote {write(name)}")
        except BadRequestError as exc:  # artifact missing: wrong cwd
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 1 if mismatch else 0

    print(_snapshot(args.seed, args.format), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
