"""Shared infrastructure for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (or one
ablation from DESIGN.md §6). Results are printed and also written to
``benchmarks/results/<name>.txt`` so ``pytest benchmarks/`` leaves the
regenerated artifacts on disk.

The scientific output is the *simulated* delays/bandwidths inside the
result files; what running the simulation costs in wall-clock is
``perf/``'s subject, not this suite's.
"""

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    """Write a regenerated table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
