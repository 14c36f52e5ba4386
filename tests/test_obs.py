"""Unit tests for the observability plane (repro.obs): registry
instruments, exporters, span pairing, and the stats facade."""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.errors import BadRequestError, ConsistencyError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    RegistryStats,
    Span,
    pair_spans,
    render_json,
    render_text,
)
from repro.sim import Environment, Tracer


# ------------------------------------------------------------- registry


def test_counter_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("repro_things_total", kind="a")
    c.inc()
    c.inc(41)
    assert c.value == 42
    with pytest.raises(BadRequestError):
        c.inc(-1)
    assert c.value == 42


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("repro_level")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value == 12


def test_histogram_bucket_placement():
    reg = MetricsRegistry()
    h = reg.histogram("repro_lat_seconds", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        h.observe(value)
    assert h.count == 4
    assert h.total == pytest.approx(5.555)
    cumulative = dict(h.cumulative())
    assert cumulative["0.01"] == 1
    assert cumulative["0.1"] == 2
    assert cumulative["1.0"] == 3
    assert cumulative["+Inf"] == 4


def test_histogram_rejects_bad_buckets():
    reg = MetricsRegistry()
    with pytest.raises(BadRequestError):
        reg.histogram("repro_bad", buckets=(0.2, 0.1))
    with pytest.raises(BadRequestError):
        reg.histogram("repro_bad2", buckets=())
    reg.histogram("repro_ok", buckets=(1.0, 2.0))
    with pytest.raises(ConsistencyError):
        reg.histogram("repro_ok", buckets=(1.0, 3.0))


def test_get_or_create_identity_and_label_order():
    reg = MetricsRegistry()
    a = reg.counter("repro_x_total", b="2", a="1")
    b = reg.counter("repro_x_total", a="1", b="2")
    assert a is b
    assert a.key == 'repro_x_total{a="1",b="2"}'
    assert reg.counter("repro_x_total", a="1") is not a


def test_kind_conflict_and_bad_names():
    reg = MetricsRegistry()
    reg.counter("repro_thing_total")
    with pytest.raises(ConsistencyError):
        reg.gauge("repro_thing_total")
    with pytest.raises(BadRequestError):
        reg.counter("0bad")
    with pytest.raises(BadRequestError):
        reg.counter("repro_ok_total", **{"bad-label": "x"})


def test_value_find_total():
    reg = MetricsRegistry()
    reg.counter("repro_ops_total", server="a").inc(3)
    reg.counter("repro_ops_total", server="b").inc(4)
    assert reg.value("repro_ops_total", server="a") == 3
    assert reg.value("repro_ops_total", server="missing") == 0
    assert reg.find("repro_ops_total", server="missing") is None
    assert reg.total("repro_ops_total") == 7


# ------------------------------------------------------------ exporters


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_ops_total", server="s1").inc(3)
    reg.gauge("repro_frag", area="s1:disk").set(0.25)
    h = reg.histogram("repro_lat_seconds", buckets=(0.01, 0.1))
    h.observe(0.05)
    return reg


def test_render_text_shape():
    text = render_text(_sample_registry())
    assert "# TYPE repro_ops_total counter" in text
    assert 'repro_ops_total{server="s1"} 3' in text
    assert 'repro_frag{area="s1:disk"} 0.25' in text
    assert '# TYPE repro_lat_seconds histogram' in text
    assert 'repro_lat_seconds_bucket{le="0.01"} 0' in text
    assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_lat_seconds_sum 0.05" in text
    assert "repro_lat_seconds_count 1" in text
    assert text.endswith("\n")


def test_render_deterministic_across_builds():
    # Same instruments registered in a different order render the same.
    a = _sample_registry()
    b = MetricsRegistry()
    h = b.histogram("repro_lat_seconds", buckets=(0.01, 0.1))
    h.observe(0.05)
    b.gauge("repro_frag", area="s1:disk").set(0.25)
    b.counter("repro_ops_total", server="s1").inc(3)
    assert render_text(a) == render_text(b)
    assert render_json(a) == render_json(b)
    assert render_json(a).endswith("\n")


def test_default_buckets_ascending():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# --------------------------------------------------------------- facade


class _DemoStats(RegistryStats):
    _PREFIX = "repro_demo"
    _COUNTER_FIELDS = ("hits", "misses")


def test_registry_stats_facade_roundtrip():
    reg = MetricsRegistry()
    stats = _DemoStats(reg, unit="u1")
    stats.hits += 2
    stats.misses += 1
    assert stats.hits == 2
    assert reg.value("repro_demo_hits_total", unit="u1") == 2
    assert stats.snapshot() == {"hits": 2, "misses": 1}
    with pytest.raises(BadRequestError):
        stats.hits -= 1  # counters never rewind
    with pytest.raises(AttributeError):
        stats.no_such_field


def test_registry_stats_private_registry_default():
    stats = _DemoStats()
    stats.hits += 1
    assert stats.registry.value("repro_demo_hits_total") == 1


# ---------------------------------------------------------------- spans


def test_span_begin_end_pairing():
    env = Environment()
    tracer = Tracer(env=env)
    outer = tracer.begin_span("span", "outer", op="READ")
    env.run(until=1.5)
    inner = tracer.begin_span("span", "inner", parent=outer)
    env.run(until=2.0)
    tracer.end_span(inner, "span", "inner")
    tracer.end_span(outer, "span", "outer", status=0)
    spans = pair_spans(tracer.select("span"))
    assert [s.name for s in spans] == ["outer", "inner"]
    assert isinstance(spans[0], Span)
    assert spans[0].duration == pytest.approx(2.0)
    assert spans[1].duration == pytest.approx(0.5)
    assert spans[1].parent == outer
    assert dict(spans[0].begin_fields)["op"] == "READ"
    assert dict(spans[0].end_fields)["status"] == 0


def test_span_ids_are_sequential():
    env = Environment()
    tracer = Tracer(env=env)
    ids = [tracer.begin_span("span", f"s{i}") for i in range(3)]
    assert ids == [1, 2, 3]


def test_unclosed_span_raises_unless_allowed():
    env = Environment()
    tracer = Tracer(env=env)
    tracer.begin_span("span", "open")
    with pytest.raises(ConsistencyError):
        pair_spans(tracer.select("span"))
    # allow_open tolerates (and omits) the still-open span.
    assert pair_spans(tracer.select("span"), allow_open=True) == []


def test_orphan_end_and_duplicate_begin_raise():
    env = Environment()
    tracer = Tracer(env=env)
    tracer.end_span(99, "span", "ghost")
    with pytest.raises(ConsistencyError):
        pair_spans(tracer.select("span"))
    tracer.clear()
    tracer.emit("span", "dup", span=7, phase="B")
    tracer.emit("span", "dup", span=7, phase="B")
    with pytest.raises(ConsistencyError):
        pair_spans(tracer.select("span"))


def test_disabled_tracer_spans_noop():
    env = Environment()
    null = Tracer(env=env, enabled=False)
    assert null.begin_span("span", "x") == 0
    null.end_span(0, "span", "x")
    assert null.records == []


# ------------------------------------------------------------- analyzer


def test_obs_package_is_analyzer_clean():
    obs_dir = Path(__file__).resolve().parents[1] / "src" / "repro" / "obs"
    result = analyze_paths([str(obs_dir)])
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.clean, f"repro.obs has analyzer findings:\n{rendered}"
    assert result.files_checked >= 5
