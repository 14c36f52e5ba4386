"""``python -m repro.obs bench`` — regenerate the committed artifacts.

``bench`` rewrites the ``BENCH_<name>.json`` measurements and the paper
tables under ``benchmarks/results/`` from the experiment table in
:mod:`repro.bench.experiments` (run it from the repository root)::

    python -m repro.obs bench              # rewrite every artifact
    python -m repro.obs bench coherence    # rewrite BENCH_coherence.json only
    python -m repro.obs bench fig3_nfs     # rewrite benchmarks/results/fig3_nfs.txt
    python -m repro.obs bench --check      # write nothing: byte-compare
                                           # fresh runs against the
                                           # committed files (diff, exit 1)

``bench`` is the only command; without it the CLI prints its usage.
"""

from __future__ import annotations

import argparse
import sys

from ..bench.experiments import EXPERIMENTS, check, write
from ..errors import BadRequestError


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Regenerate or check the committed bench artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bench = sub.add_parser("bench", help="regenerate the committed bench "
                                         "artifacts")
    bench.add_argument("names", nargs="*", metavar="NAME",
                       help="experiments to run, or 'all' (the default)")
    bench.add_argument("--check", action="store_true",
                       help="write nothing: byte-compare each fresh run "
                            "against its committed artifact, print a "
                            "unified diff and exit 1 on any mismatch")
    args = parser.parse_args(argv)

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


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
