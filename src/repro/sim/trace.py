"""Event tracing / telemetry.

Components emit timestamped trace records through a :class:`Tracer`;
tests assert on them, benchmarks aggregate them, and examples print them.
Tracing is off by default and costs one attribute check per emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .core import Environment

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace event."""

    time: float
    category: str
    message: str
    fields: tuple = ()

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"[{self.time * 1000:10.3f} ms] {self.category:<12} {self.message} {extra}".rstrip()


@dataclass
class Tracer:
    """Collects :class:`TraceRecord`s for an environment.

    ``categories`` restricts collection; ``sink`` (if set) is called for
    each record as it is emitted (e.g. ``print``).
    """

    env: Environment
    categories: Optional[set[str]] = None
    sink: Optional[Callable[[TraceRecord], None]] = None
    records: list[TraceRecord] = field(default_factory=list)
    enabled: bool = True
    span_seq: int = 0

    def emit(self, category: str, message: str, **fields) -> None:
        """Record one event at the current simulated time."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        record = TraceRecord(
            time=self.env.now,
            category=category,
            message=message,
            fields=tuple(sorted(fields.items())),
        )
        self.records.append(record)
        if self.sink is not None:
            self.sink(record)

    # ------------------------------------------------------------- spans

    def begin_span(self, category: str, name: str, **fields) -> int:
        """Open a span: emit a begin marker, return the new span id.

        Span ids are sequential per tracer, so two same-seed runs number
        their spans identically. Returns 0 when tracing is disabled (the
        matching :meth:`end_span` then no-ops).
        :func:`repro.obs.pair_spans` reassembles the B/E markers into
        :class:`~repro.obs.Span` objects.
        """
        if not self.enabled:
            return 0
        self.span_seq += 1
        span_id = self.span_seq
        self.emit(category, name, span=span_id, phase="B", **fields)
        return span_id

    def end_span(self, span_id: int, category: str, name: str,
                 **fields) -> None:
        """Close a span opened by :meth:`begin_span` (0 is a no-op)."""
        if not self.enabled or not span_id:
            return
        self.emit(category, name, span=span_id, phase="E", **fields)

    def select(self, category: str) -> list[TraceRecord]:
        """All collected records in ``category``."""
        return [r for r in self.records if r.category == category]

    def clear(self) -> None:
        self.records.clear()

    def dump(self, categories: Optional[Iterable[str]] = None) -> str:
        """Human-readable dump of collected records."""
        wanted = set(categories) if categories is not None else None
        lines = [
            str(r)
            for r in self.records
            if wanted is None or r.category in wanted
        ]
        return "\n".join(lines)
