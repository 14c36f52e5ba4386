"""``python -m repro.analysis`` — the invariant linter's command line.

Usage::

    python -m repro.analysis src/repro             # lint the tree
    python -m repro.analysis --format json src     # machine-readable
    python -m repro.analysis --select D001,S001 f.py
    python -m repro.analysis --list-rules

Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
parse errors — so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from .engine import analyze_paths
from .framework import Config
from .reporter import render_json, render_rule_list, render_text

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter: determinism (D...), "
                    "sim-process discipline (S...), capability discipline "
                    "(C...) and error-style (A...) rules over the "
                    "reproduction's own source.",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze (e.g. src/repro)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", default="",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def main(argv: list) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(render_rule_list())
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try: python -m repro.analysis src/repro)",
              file=sys.stderr)
        return 2
    select = tuple(part.strip() for part in args.select.split(",") if part.strip())
    try:
        result = analyze_paths(args.paths, Config(select=select))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = render_json(result) if args.format == "json" else render_text(result)
    print(report)
    return result.exit_code
