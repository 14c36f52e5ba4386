"""The metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` is the accounting authority for a whole
testbed: every component (server, cache, disks, Ethernet, RPC, retry
layer, fault controller) registers its instruments here, keyed by
metric name plus a sorted label set, so ``std_status`` snapshots, the
Prometheus/JSON exporters, and the bench emitter all read the *same*
numbers — no scattered dataclass pokes that can drift apart.

Determinism rules:

* **Sim-time only.** The registry never reads a clock. Durations fed to
  :meth:`Histogram.observe` are simulated seconds supplied by callers.
* **Deterministic export.** Collection order is sorted by
  ``(name, labels)``; two same-seed runs render byte-identical text and
  JSON (the runtime half of the analyzer's D001/D002 contract).
* **Monotonic counters.** :meth:`Counter.inc` rejects negative deltas,
  so conservation invariants (``hits + misses == lookups``) are checked
  against values that can only have been accumulated, never rewound.
"""

from __future__ import annotations

import bisect
import re
from typing import Optional

from ..errors import BadRequestError, ConsistencyError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "RegistryStats",
    "DEFAULT_BUCKETS",
]

_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: Default latency buckets (simulated seconds): spans the null-RPC
#: regime (~1.4 ms) up to the 1 MB whole-file transfers (~2 s).
DEFAULT_BUCKETS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)


class Metric:
    """Base: a named instrument with a canonical (sorted) label set.

    ``name``/``labels`` never change after construction, so the
    canonical sample key is rendered exactly once here — hot paths and
    exporters read a plain attribute instead of re-joining label tuples
    per call.
    """

    kind = "untyped"

    __slots__ = ("name", "labels", "key")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels  # tuple of (key, value) pairs, sorted by key
        if labels:
            inner = ",".join(f'{k}="{v}"' for k, v in labels)
            self.key = f"{name}{{{inner}}}"  # Prometheus sample shape
        else:
            self.key = name


class Counter(Metric):
    """A monotonically increasing count (int or float)."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: tuple):
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount=1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise BadRequestError(
                f"counter {self.key} can only go up (inc by {amount})"
            )
        self.value += amount


class Gauge(Metric):
    """A value that can go up and down (fragmentation, free bytes...)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: tuple):
        super().__init__(name, labels)
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount


class Histogram(Metric):
    """Fixed-bucket histogram of observations (simulated seconds).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    rest. Per-bin counts are stored; exporters render the cumulative
    ``le`` form Prometheus expects.
    """

    kind = "histogram"

    __slots__ = ("buckets", "bin_counts", "total", "count")

    def __init__(self, name: str, labels: tuple, buckets: tuple):
        super().__init__(name, labels)
        if not buckets:
            raise BadRequestError("histogram needs at least one bucket")
        ordered = tuple(buckets)
        if list(ordered) != sorted(ordered) or len(set(ordered)) != len(ordered):
            raise BadRequestError(
                f"histogram buckets must be strictly ascending: {buckets}"
            )
        self.buckets = ordered
        self.bin_counts = [0] * (len(ordered) + 1)  # last bin is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value) -> None:
        """Record one observation."""
        self.bin_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list:
        """(upper_bound_label, cumulative_count) pairs, ending at +Inf."""
        out = []
        running = 0
        for bound, count in zip(self.buckets, self.bin_counts):
            running += count
            out.append((repr(float(bound)), running))
        out.append(("+Inf", running + self.bin_counts[-1]))
        return out


class MetricsRegistry:
    """Get-or-create registry of metrics, keyed by (name, labels)."""

    def __init__(self):
        self._metrics: dict = {}

    # ----------------------------------------------------------- factories

    def counter(self, name: str, **labels) -> Counter:
        """The counter named ``name`` with exactly ``labels``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge named ``name`` with exactly ``labels``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: tuple, **labels) -> Histogram:
        """The histogram named ``name``; ``buckets`` must agree with any
        earlier registration of the same instrument."""
        wanted = tuple(buckets)
        metric = self._get(Histogram, name, labels, buckets=wanted)
        if metric.buckets != wanted:
            raise ConsistencyError(
                f"histogram {metric.key} re-registered with different "
                f"buckets: {metric.buckets} vs {wanted}"
            )
        return metric

    def _get(self, cls, name: str, labels: dict, **extra):
        if not _NAME.match(name):
            raise BadRequestError(f"invalid metric name {name!r}")
        canonical = []
        for key in sorted(labels):
            if not _LABEL_NAME.match(key):
                raise BadRequestError(f"invalid label name {key!r}")
            canonical.append((key, str(labels[key])))
        label_tuple = tuple(canonical)
        slot = (name, label_tuple)
        metric = self._metrics.get(slot)
        if metric is None:
            metric = cls(name, label_tuple, **extra)
            self._metrics[slot] = metric
            return metric
        if not isinstance(metric, cls):
            raise ConsistencyError(
                f"metric {metric.key} already registered as a "
                f"{metric.kind}, requested as a {cls.kind}"
            )
        return metric

    # ------------------------------------------------------------- queries

    def collect(self) -> list:
        """Every metric, sorted by (name, labels) — the export order."""
        return sorted(self._metrics.values(), key=lambda m: (m.name, m.labels))

    def find(self, name: str, **labels) -> Optional[Metric]:
        """The metric with exactly these labels, or None (no creation)."""
        label_tuple = tuple(sorted((k, str(v)) for k, v in labels.items()))
        return self._metrics.get((name, label_tuple))

    def value(self, name: str, **labels):
        """Shortcut: the current value of a counter/gauge (0 if absent)."""
        metric = self.find(name, **labels)
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            raise BadRequestError(
                f"{metric.key} is a histogram; read .count/.total instead"
            )
        return metric.value

    def total(self, name: str):
        """Sum of a counter family's values across all label sets."""
        return sum(
            m.value
            for (metric_name, _labels), m in sorted(self._metrics.items())
            if metric_name == name and isinstance(m, Counter)
        )

    def snapshot(self) -> dict:
        """A plain-data, JSON-able view: stable keys, sorted order."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for metric in self.collect():
            if isinstance(metric, Counter):
                counters[metric.key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.key] = metric.value
            else:
                histograms[metric.key] = {
                    "buckets": {le: n for le, n in metric.cumulative()},
                    "sum": metric.total,
                    "count": metric.count,
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


class RegistryStats:
    """Base for a component's bundle of registry counters.

    Subclasses declare ``_PREFIX`` and ``_COUNTER_FIELDS``; construction
    registers each field as the counter ``{_PREFIX}_{field}_total`` with
    the given labels — every one, so zero-valued counters still appear
    in snapshots — and binds it to the attribute of the same name:
    ``stats.reads.inc()``, ``stats.reads.value``. A ``None`` registry
    means a private one.
    """

    _PREFIX = "repro"
    _COUNTER_FIELDS: tuple = ()

    def __init__(self, registry: Optional[MetricsRegistry], **labels):
        self.registry = registry if registry is not None else MetricsRegistry()
        for field in self._COUNTER_FIELDS:
            setattr(self, field, self.registry.counter(
                f"{self._PREFIX}_{field}_total", **labels))

    def snapshot(self) -> dict:
        """Field -> current value, in declaration order."""
        return {field: getattr(self, field).value
                for field in self._COUNTER_FIELDS}
