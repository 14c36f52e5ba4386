"""repro.obs — the deterministic observability plane.

The paper's evaluation (§4) is entirely measured delays and bandwidths;
this package is the measurement substrate the reproduction uses to
observe itself:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms,
  all sim-time based (no wall clock, analyzer-clean). One registry per
  testbed is the single accounting authority; the per-component stats
  objects (``ServerStats``, ``CacheStats``, ``DiskStats``...) are
  bundles of its counters (:class:`RegistryStats`).
* :meth:`MetricsRegistry.snapshot` — the registry as plain data,
  byte-identical across same-seed runs once rendered as canonical JSON.
* :func:`pair_spans` — request-scoped span reconstruction; spans flow
  RPC → server → cache → disk so a READ decomposes into its
  queue/cache/disk/net components.
* ``python -m repro.obs bench [NAME...|all] [--check]`` regenerates
  the committed ``BENCH_<name>.json`` artifacts, or byte-compares against
  them. The experiments themselves live in
  :mod:`repro.bench.experiments`; only ``__main__`` imports them, so
  this package stays importable from ``repro.core``.
"""

from .registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    RegistryStats,
)
from .spans import Span, pair_spans

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "RegistryStats",
    "Span",
    "pair_spans",
]
