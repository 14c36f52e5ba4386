"""Exporters: Prometheus exposition text and canonical JSON.

Both renderings are pure functions of a registry's state and are
byte-identical across same-seed runs: metrics are emitted in sorted
``(name, labels)`` order, integers render without a decimal point, and
floats render via :func:`repr` (shortest round-trip form, stable for a
given value).
"""

from __future__ import annotations

import json

from .registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["render_text", "render_json"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(value)


def _sample(name: str, labels: tuple, value, extra_label=None) -> str:
    pairs = list(labels)
    if extra_label is not None:
        pairs.append(extra_label)
    if pairs:
        inner = ",".join(f'{k}="{v}"' for k, v in pairs)
        return f"{name}{{{inner}}} {_fmt(value)}"
    return f"{name} {_fmt(value)}"


def render_text(registry: MetricsRegistry) -> str:
    """Prometheus exposition format (one ``# TYPE`` line per family)."""
    lines = []
    last_family = None
    for metric in registry.collect():
        if metric.name != last_family:
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            last_family = metric.name
        if isinstance(metric, (Counter, Gauge)):
            lines.append(_sample(metric.name, metric.labels, metric.value))
        elif isinstance(metric, Histogram):
            for le, cumulative in metric.cumulative():
                lines.append(_sample(f"{metric.name}_bucket", metric.labels,
                                     cumulative, extra_label=("le", le)))
            lines.append(_sample(f"{metric.name}_sum", metric.labels,
                                 metric.total))
            lines.append(_sample(f"{metric.name}_count", metric.labels,
                                 metric.count))
    return "\n".join(lines) + "\n" if lines else ""


def render_json(registry: MetricsRegistry) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(registry.snapshot(), sort_keys=True, indent=2) + "\n"
