"""Span reconstruction over trace records.

Components emit span begin/end markers through
:meth:`repro.sim.trace.Tracer.begin_span` / ``end_span`` (category
``"span"`` by convention); this module pairs them back into
:class:`Span` objects so a request can be decomposed into its
queue / op / cache / disk / net components — the measurement the
paper's §4 delay tables are made of.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConsistencyError

__all__ = ["Span", "pair_spans"]


@dataclass(frozen=True)
class Span:
    """One completed span, reconstructed from its B/E trace records."""

    span_id: int
    category: str
    name: str
    begin: float
    end: float
    parent: int = 0
    begin_fields: tuple = ()
    end_fields: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.begin


def pair_spans(records, allow_open: bool = False) -> list:
    """Pair span begin/end trace records into :class:`Span` objects.

    ``records`` is an iterable of :class:`~repro.sim.trace.TraceRecord`;
    records without ``span``/``phase`` fields are ignored. Raises
    :class:`~repro.errors.ConsistencyError` on a duplicate begin, an end
    without a begin, or (unless ``allow_open``) a begin without an end —
    the span-pairing invariant the metrics test suite enforces.
    """
    open_spans: dict = {}
    spans = []
    for record in records:
        fields = dict(record.fields)
        span_id = fields.get("span")
        phase = fields.get("phase")
        if span_id is None or phase is None:
            continue
        if phase == "B":
            if span_id in open_spans:
                raise ConsistencyError(f"span {span_id} began twice")
            open_spans[span_id] = record
        elif phase == "E":
            begin = open_spans.pop(span_id, None)
            if begin is None:
                raise ConsistencyError(
                    f"span {span_id} ended without a begin"
                )
            begin_fields = dict(begin.fields)
            spans.append(Span(
                span_id=span_id,
                category=begin.category,
                name=begin.message,
                begin=begin.time,
                end=record.time,
                parent=begin_fields.get("parent", 0),
                begin_fields=begin.fields,
                end_fields=record.fields,
            ))
        else:
            raise ConsistencyError(
                f"span {span_id} carries unknown phase {phase!r}"
            )
    if open_spans and not allow_open:
        raise ConsistencyError(
            f"unclosed spans: {sorted(open_spans)}"
        )
    return sorted(spans, key=lambda s: (s.begin, s.span_id))
