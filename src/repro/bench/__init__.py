"""The experiment layer (S13/S14): workloads and the trace replayer,
the §4 testbed rig with its timing and closed-loop drivers, paper-style
tables, and — in :mod:`repro.bench.experiments` — every committed
experiment with its artifact table."""

from .harness import Rig, bullet_figure2, closed_loop, make_rig, nfs_figure3, timed
from .tables import MeasurementTable, ascii_chart, comparison_lines
from .workload import (
    PAPER_SIZES,
    FileSizeDistribution,
    TraceGenerator,
    replay_bullet,
    replay_nfs,
)

__all__ = [
    "PAPER_SIZES",
    "Rig",
    "bullet_figure2",
    "closed_loop",
    "make_rig",
    "nfs_figure3",
    "timed",
    "MeasurementTable",
    "ascii_chart",
    "comparison_lines",
    "FileSizeDistribution",
    "TraceGenerator",
    "replay_bullet",
    "replay_nfs",
]
