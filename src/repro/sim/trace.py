"""Event tracing / telemetry.

Components emit timestamped trace records through a :class:`Tracer`;
tests assert on them, benchmarks aggregate them, and examples print them.
A component built with ``tracer=None`` traces nothing: that ``is None``
test at each site is the one off switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

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
    """Collects every :class:`TraceRecord` of an environment. ``sink``
    (if assigned) is called for each record as it is emitted (e.g.
    ``print``)."""

    env: Environment
    sink: Optional[Callable[[TraceRecord], None]] = field(default=None,
                                                          init=False)
    records: list[TraceRecord] = field(default_factory=list, init=False)
    span_seq: int = field(default=0, init=False)

    def emit(self, category: str, message: str, **fields) -> None:
        """Record one event at the current simulated time."""
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
        their spans identically.
        :func:`repro.obs.pair_spans` reassembles the B/E markers into
        :class:`~repro.obs.Span` objects.
        """
        self.span_seq += 1
        span_id = self.span_seq
        self.emit(category, name, span=span_id, phase="B", **fields)
        return span_id

    def end_span(self, span_id: int, category: str, name: str,
                 **fields) -> None:
        """Close a span opened by :meth:`begin_span`; 0 (the queue span
        of a request an untraced transport delivered) is a no-op."""
        if not span_id:
            return
        self.emit(category, name, span=span_id, phase="E", **fields)

    def select(self, category: str) -> list[TraceRecord]:
        """All collected records in ``category``."""
        return [r for r in self.records if r.category == category]

    def clear(self) -> None:
        self.records.clear()

    def dump(self) -> str:
        """Human-readable dump of collected records."""
        return "\n".join(str(r) for r in self.records)
