"""Coverage for the small supporting modules: units, errors, profiles,
tracing, and the deterministic RNG."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    CapabilityError,
    NoSpaceError,
    ReproError,
    RpcTimeoutError,
    Status,
    error_for_status,
)
from repro.profiles import DEFAULT_TESTBED, DiskProfile, EthernetProfile
from repro.sim import Environment, SeededStream, Tracer, derive_seed
from repro.units import (
    KB,
    MB,
    bandwidth_kb_per_sec,
    fmt_size,
    msec,
    to_msec,
    usec,
)


# ------------------------------------------------------------------ units


def test_unit_constants():
    assert KB == 1024
    assert MB == 1024 * 1024
    assert msec(5) == pytest.approx(0.005)
    assert usec(5) == pytest.approx(5e-6)
    assert to_msec(0.25) == pytest.approx(250.0)


def test_bandwidth_helper():
    assert bandwidth_kb_per_sec(1024, 1.0) == pytest.approx(1.0)
    assert bandwidth_kb_per_sec(1024, 0.0) == float("inf")


def test_fmt_size_matches_paper_labels():
    assert fmt_size(1) == "1 byte"
    assert fmt_size(16) == "16 bytes"
    assert fmt_size(1024) == "1 Kbytes"
    assert fmt_size(64 * KB) == "64 Kbytes"
    assert fmt_size(MB) == "1 Mbyte"
    assert fmt_size(1536) == "1.5 Kbytes"


# ----------------------------------------------------------------- errors


def test_every_status_maps_to_exception():
    for status in Status:
        if status is Status.OK:
            continue
        exc = error_for_status(int(status), "message")
        assert isinstance(exc, ReproError)
        assert exc.status == status
        assert "message" in str(exc)


def test_error_round_trip_specific_classes():
    assert isinstance(error_for_status(int(Status.CAP_BAD)), CapabilityError)
    assert isinstance(error_for_status(int(Status.NO_SPACE)), NoSpaceError)
    assert isinstance(error_for_status(int(Status.TIMEOUT)), RpcTimeoutError)


def test_default_exception_message():
    exc = NoSpaceError()
    assert "NoSpaceError" in str(exc)


# --------------------------------------------------------------- profiles


def test_disk_profile_derived_values():
    disk = DiskProfile()
    assert disk.rotation_time == pytest.approx(60.0 / 3600)
    assert disk.avg_rotational_latency == pytest.approx(disk.rotation_time / 2)
    assert disk.blocks_per_cylinder == disk.heads * disk.sectors_per_track
    assert disk.total_blocks == disk.capacity_bytes // disk.block_size


def test_ethernet_profile_wire_time():
    eth = EthernetProfile()
    # A minimum-size frame costs 64 bytes on the wire.
    assert eth.wire_time(1) == pytest.approx(64 * 8 / 10e6)
    assert eth.max_payload == eth.mtu - eth.header_bytes


def test_default_testbed_is_self_consistent():
    tb = DEFAULT_TESTBED
    assert tb.bullet.ram_bytes > tb.bullet.reserved_ram_bytes
    assert tb.nfs.buffer_cache_bytes < tb.bullet.ram_bytes
    assert tb.disk.capacity_bytes == 800 * MB


# ---------------------------------------------------------------- tracing


def test_tracer_collects_and_filters():
    env = Environment()
    tracer = Tracer(env=env)
    tracer.emit("disk", "read", block=5)
    tracer.emit("rpc", "sent")
    assert len(tracer.records) == 2
    assert [r.message for r in tracer.select("disk")] == ["read"]
    assert tracer.select("net") == []


def test_tracer_sink_called():
    env = Environment()
    seen = []
    tracer = Tracer(env=env)
    tracer.sink = seen.append
    tracer.emit("x", "hello")
    assert len(seen) == 1
    assert "hello" in str(seen[0])


def test_tracer_dump_and_clear():
    env = Environment()
    tracer = Tracer(env=env)
    tracer.emit("a", "first", value=1)
    tracer.emit("b", "second")
    dump = tracer.dump()
    assert "first" in dump and "second" in dump and "value=1" in dump
    tracer.clear()
    assert tracer.records == []


def test_tracer_records_sim_time():
    env = Environment()
    tracer = Tracer(env=env)

    def proc():
        yield env.timeout(1.5)
        tracer.emit("t", "late")

    env.process(proc())
    env.run()
    assert tracer.records[0].time == 1.5


def test_bullet_server_emits_traces(env):
    from repro.sim import run_process
    from conftest import make_bullet

    tracer = Tracer(env=env)
    bullet = make_bullet(env, tracer=tracer)
    run_process(env, bullet.create(b"traced", 1))
    assert any(r.message == "create" for r in tracer.select("bullet"))


# -------------------------------------------------------------------- rng


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_streams_independent():
    """Draws from one stream must not perturb another with the same
    master seed."""
    a1 = SeededStream(9, "alpha")
    b1 = SeededStream(9, "beta")
    _ = [a1.random() for _ in range(100)]
    b_values = [b1.random() for _ in range(5)]
    b2 = SeededStream(9, "beta")
    assert [b2.random() for _ in range(5)] == b_values


def test_lognormal_bounded_clamps():
    stream = SeededStream(3, "x")
    for _ in range(200):
        v = stream.lognormal_bounded(1024, 3.0, lo=10, hi=100)
        assert 10 <= v <= 100


def test_zipf_index_distribution():
    stream = SeededStream(4, "z")
    counts = [0] * 10
    for _ in range(5000):
        counts[stream.zipf_index(10, skew=1.0)] += 1
    assert counts[0] > counts[4] > counts[9]
    assert sum(counts) == 5000


def test_zipf_index_rejects_empty():
    stream = SeededStream(4, "z")
    with pytest.raises(ValueError):
        stream.zipf_index(0)


@given(n=st.integers(min_value=1, max_value=50),
       skew=st.floats(min_value=0.1, max_value=2.0))
def test_zipf_index_in_range_property(n, skew):
    stream = SeededStream(5, "zz")
    for _ in range(20):
        assert 0 <= stream.zipf_index(n, skew) < n
