"""The experiment layer (S13/S14): workloads and the trace replayer,
the §4 testbed rig with its timing and closed-loop drivers, paper-style
tables, and every committed experiment — the paper's figures and claims
in :mod:`repro.bench.paper`, the ablations in
:mod:`repro.bench.ablations`, the JSON measurements and the one table
of all of them in :mod:`repro.bench.experiments` (none of the three is
imported here: ``import repro`` loads no experiment)."""

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
