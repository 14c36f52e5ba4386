"""Tests for the disk substrate: geometry/timing, the virtual disk,
scheduling disciplines, mirroring, and fault injection."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import (
    DiskGeometry,
    ElevatorQueue,
    FcfsQueue,
    MirroredDiskSet,
    VirtualDisk,
    make_queue,
)
from repro.errors import BadRequestError, DiskIOError, ServerDownError
from repro.faults import FaultController, FaultPlan, arm_fail_after_writes
from repro.profiles import DiskProfile
from repro.sim import Environment, Tracer, run_process
from repro.units import KB, MB


SMALL = DiskProfile(name="small", capacity_bytes=16 * MB, cylinders=64,
                    heads=4, sectors_per_track=32)


def make_disk(env, name="d0", discipline="fcfs", profile=SMALL):
    return VirtualDisk(env, profile, name=name, discipline=discipline)


# ----------------------------------------------------------- geometry


def test_geometry_block_counts():
    g = DiskGeometry(SMALL)
    assert g.total_blocks == 16 * MB // 512
    assert g.block_size == 512


def test_cylinder_mapping():
    g = DiskGeometry(SMALL)
    per_cyl = SMALL.blocks_per_cylinder
    assert g.cylinder_of(0) == 0
    assert g.cylinder_of(per_cyl - 1) == 0
    assert g.cylinder_of(per_cyl) == 1


def test_cylinder_mapping_rejects_bad_block():
    g = DiskGeometry(SMALL)
    with pytest.raises(ValueError):
        g.cylinder_of(-1)
    with pytest.raises(ValueError):
        g.cylinder_of(g.total_blocks)


def test_seek_time_zero_for_same_cylinder():
    g = DiskGeometry(SMALL)
    assert g.seek_time(5, 5) == 0.0


def test_seek_time_monotone_in_distance():
    g = DiskGeometry(SMALL)
    times = [g.seek_time(0, d) for d in (1, 4, 16, 63)]
    assert times == sorted(times)
    assert times[0] >= SMALL.seek_settle


def test_full_stroke_seek_matches_profile():
    g = DiskGeometry(SMALL)
    assert g.seek_time(0, SMALL.cylinders - 1) == pytest.approx(
        SMALL.seek_full_stroke
    )


def test_transfer_time_linear():
    g = DiskGeometry(SMALL)
    assert g.transfer_time(20) == pytest.approx(2 * g.transfer_time(10))
    assert g.transfer_time(0) == 0.0


def test_contiguous_access_cheaper_than_scattered():
    """The core physical claim of the paper: reading N blocks
    contiguously costs far less than reading them scattered."""
    g = DiskGeometry(SMALL)
    nblocks = 128  # 64 KB
    contiguous = g.access_time(0, 0, nblocks)
    per_cyl = SMALL.blocks_per_cylinder
    scattered = 0.0
    cyl = 0
    for i in range(nblocks):
        target_cyl = (i * 7) % SMALL.cylinders
        scattered += g.access_time(cyl, target_cyl * per_cyl, 1)
        cyl = target_cyl
    assert scattered > 5 * contiguous


def test_access_time_charges_cylinder_crossings():
    g = DiskGeometry(SMALL)
    per_cyl = SMALL.blocks_per_cylinder
    within = g.access_time(0, 0, per_cyl)
    crossing = g.access_time(0, 0, per_cyl + 1)
    assert crossing > within


@given(
    start=st.integers(min_value=0, max_value=1000),
    nblocks=st.integers(min_value=1, max_value=512),
    cyl=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=100)
def test_access_time_positive_property(start, nblocks, cyl):
    g = DiskGeometry(SMALL)
    t = g.access_time(cyl, start, nblocks)
    assert t >= g.transfer_time(nblocks)


@given(
    start=st.integers(min_value=0, max_value=32767),
    nblocks=st.integers(min_value=0, max_value=4096),
    cyl=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=100)
def test_access_time_is_bit_identical_to_the_profile_expression(
        start, nblocks, cyl):
    # The geometry derives its constants once; every simulated number in
    # the repository hangs on this staying the same float, not a close one.
    nblocks = min(nblocks, SMALL.total_blocks - start)
    g = DiskGeometry(SMALL)
    first = start // SMALL.blocks_per_cylinder
    last = (start + max(nblocks - 1, 0)) // SMALL.blocks_per_cylinder
    seek = 0.0 if cyl == first else SMALL.seek_settle + (
        SMALL.seek_full_stroke - SMALL.seek_settle) * (
        math.sqrt(abs(first - cyl)) / math.sqrt(max(SMALL.cylinders - 1, 1)))
    expected = 0.0 if nblocks == 0 else (
        seek + SMALL.avg_rotational_latency
        + (nblocks * SMALL.block_size) / SMALL.transfer_rate
        + (last - first) * SMALL.seek_settle)
    assert g.access_time(cyl, start, nblocks) == expected
    assert g.span_time(cyl, first, last, nblocks) == expected


# -------------------------------------------------------- virtual disk


def test_write_then_read_roundtrip():
    env = Environment()
    disk = make_disk(env)
    payload = bytes(range(256)) * 8  # 4 blocks

    def proc():
        yield disk.write(10, payload)
        data = yield disk.read(10, 4)
        return data

    data = run_process(env, proc())
    assert data[: len(payload)] == payload


def test_unwritten_blocks_read_as_zero():
    env = Environment()
    disk = make_disk(env)

    def proc():
        data = yield disk.read(100, 2)
        return data

    assert run_process(env, proc()) == bytes(1024)


def test_write_pads_partial_block():
    env = Environment()
    disk = make_disk(env)

    def proc():
        yield disk.write(0, b"hello")
        data = yield disk.read(0, 1)
        return data

    data = run_process(env, proc())
    assert data == b"hello" + bytes(512 - 5)


def test_write_empty_rejected():
    env = Environment()
    disk = make_disk(env)
    with pytest.raises(ValueError):
        disk.write(0, b"")


def test_read_takes_simulated_time():
    env = Environment()
    disk = make_disk(env)

    def proc():
        yield disk.read(0, 16)
        return env.now

    elapsed = run_process(env, proc())
    g = disk.geometry
    assert elapsed == pytest.approx(
        g.avg_rotational_latency + g.transfer_time(16)
    )


def test_requests_serialize_on_the_arm():
    """Two concurrent reads must not overlap in time."""
    env = Environment()
    disk = make_disk(env)
    done = []

    def reader(tag):
        yield disk.read(0, 64)
        done.append((tag, env.now))

    env.process(reader("a"))
    env.process(reader("b"))
    env.run()
    (t_a, t_b) = (done[0][1], done[1][1])
    one_read = disk.geometry.avg_rotational_latency + disk.geometry.transfer_time(64)
    assert t_a == pytest.approx(one_read)
    assert t_b == pytest.approx(2 * one_read)


def test_stats_accumulate():
    env = Environment()
    disk = make_disk(env)

    def proc():
        yield disk.write(0, bytes(1024))
        yield disk.read(0, 2)

    run_process(env, proc())
    assert disk.stats.writes.value == 1
    assert disk.stats.reads.value == 1
    assert disk.stats.blocks_written.value == 2
    assert disk.stats.blocks_read.value == 2
    assert disk.stats.busy_time.value > 0


def test_raw_plane_is_free_and_instant():
    env = Environment()
    disk = make_disk(env)
    disk.write_raw(5, b"raw data")
    assert disk.read_raw(5, 1)[:8] == b"raw data"
    assert env.now == 0.0
    assert disk.stats.writes.value == 0


def test_sparse_storage():
    env = Environment()
    disk = make_disk(env)
    disk.write_raw(1000, b"x" * 512)
    assert disk.used_host_bytes() == 512
    # The hole rule: zeros are what a hole reads as, so they store
    # nothing, and written over data they punch the hole back.
    disk.write_raw(2000, bytes(4096))
    assert disk.used_host_bytes() == 512
    disk.write_raw(1000, bytes(512))
    assert disk.used_host_bytes() == 0
    assert disk.read_raw(1000, 1) == bytes(512)


def test_out_of_range_extent_rejected():
    env = Environment()
    disk = make_disk(env)
    with pytest.raises(ValueError):
        disk.read(disk.total_blocks - 1, 2)


def test_write_snapshots_a_mutable_buffer_at_submission():
    # VirtualDisk.write is the one place a caller's buffer is copied:
    # what the caller does to it before the arm gets there is its own
    # business, the platter holds the bytes as submitted.
    env = Environment()
    disk = make_disk(env)
    buffer = bytearray(b"original" * 128)  # two blocks
    done = disk.write(7, buffer)
    buffer[:8] = b"CLOBBER!"
    env.run(until=done)
    assert disk.read_raw(7, 2) == b"original" * 128
    disk.check_invariants()


def test_whole_block_bytes_are_stored_and_read_back_as_the_same_object():
    env = Environment()
    disk = make_disk(env)
    aligned = b"a" * 2048
    disk.write_raw(10, aligned)
    assert disk.read_raw(10, 4) is aligned
    assert run_process(env, _read(disk, 10, 4)) is aligned
    # A prefix, a suffix and a read across the edge are new objects with
    # the right bytes; the stored extent is untouched.
    assert disk.read_raw(10, 3) == aligned[:1536]
    assert disk.read_raw(9, 6) == bytes(512) + aligned + bytes(512)
    assert disk.read_raw(10, 4) is aligned
    # An exact rewrite swaps the object and nothing else.
    again = b"b" * 2048
    run_process(env, _write(disk, 10, again))
    assert disk.read_raw(10, 4) is again
    assert disk.used_host_bytes() == 2048


def _read(disk, start, nblocks):
    return (yield disk.read(start, nblocks))


def _write(disk, start, data):
    yield disk.write(start, data)


# The store against a dict-of-blocks oracle, through the public raw
# plane only. 16-byte blocks keep 48 of them cheap; a step is one of
# write (short tails, zero buffers, zero heads and tails), rewrite of an
# earlier write's exact range, read (anywhere, or a prefix of an earlier
# write), punch_holes.
_TINY = DiskProfile(name="tiny", capacity_bytes=48 * 16, block_size=16,
                    cylinders=4, heads=2, sectors_per_track=6)
_FILLS = ("data", "data", "zeros", "zero head", "zero tail")
_STORE_STEPS = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 47), st.integers(1, 160),
              st.sampled_from(_FILLS)),
    st.tuples(st.just("rewrite"), st.integers(0, 99), st.just(0),
              st.sampled_from(_FILLS)),
    st.tuples(st.just("read"), st.integers(0, 47), st.integers(0, 48),
              st.none()),
    st.tuples(st.just("read prefix"), st.integers(0, 99),
              st.integers(0, 10), st.none()),
    st.tuples(st.just("punch"), st.integers(0, 47), st.integers(0, 48),
              st.none()),
), max_size=40)


def _assert_store_matches_oracle(steps):
    bs, total = _TINY.block_size, _TINY.total_blocks
    disk = VirtualDisk(Environment(), _TINY)
    oracle = {}      # block -> its bytes, for every block ever written
    stored = set()   # blocks that must be costing host memory
    written = []     # (start, nbytes) of every write so far
    zero = bytes(bs)
    for step, (kind, a, b, fill) in enumerate(steps):
        if kind in ("rewrite", "read prefix") and not written:
            continue
        if kind in ("write", "rewrite"):
            start, nbytes = ((a, min(b, (total - a) * bs))
                             if kind == "write" else written[a % len(written)])
            data = bytes((step * 31 + i) % 255 + 1 for i in range(nbytes))
            if fill == "zeros":
                data = bytes(nbytes)
            elif fill == "zero head":
                data = bytes(nbytes // 2) + data[nbytes // 2:]
            elif fill == "zero tail":
                data = data[:nbytes // 2] + bytes(nbytes - nbytes // 2)
            disk.write_raw(start, data)
            written.append((start, nbytes))
            padded = data + bytes(-nbytes % bs)
            for i in range(len(padded) // bs):
                oracle[start + i] = padded[i * bs:(i + 1) * bs]
                # The hole rule is per buffer: only an all-zero *write*
                # stores nothing.
                (stored.add if any(padded) else stored.discard)(start + i)
        elif kind == "punch":
            b = min(b, total - a)
            disk.punch_holes(a, b)
            stored -= {block for block in range(a, a + b)
                       if oracle.get(block) == zero}
        else:
            if kind == "read prefix":
                start, nbytes = written[a % len(written)]
                nblocks = min(b, -(-nbytes // bs))
            else:
                start, nblocks = a, min(b, total - a)
            assert disk.read_raw(start, nblocks) == b"".join(
                oracle.get(start + i, zero) for i in range(nblocks))
        disk.check_invariants()
        assert disk.used_host_bytes() == bs * len(stored)
    assert disk.read_raw(0, total) == b"".join(
        oracle.get(block, zero) for block in range(total))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_STORE_STEPS)
def test_extent_map_matches_a_dict_of_blocks(steps):
    _assert_store_matches_oracle(steps)


@pytest.mark.explore
@settings(max_examples=10_000, deadline=None)
@given(_STORE_STEPS)
def test_extent_map_matches_a_dict_of_blocks_on_a_larger_budget(steps):
    _assert_store_matches_oracle(steps)


def test_failed_disk_rejects_new_requests():
    env = Environment()
    disk = make_disk(env)
    disk.fail("test")

    def proc():
        try:
            yield disk.read(0, 1)
        except DiskIOError:
            return "io-error"
        return "unexpected success"

    assert run_process(env, proc()) == "io-error"


# The arm under faults. Each op is (kind, block, nblocks-or-data, what
# to do to the disk 0.1 ms in); a scenario is (write-count fault to arm,
# ops, then what must come out: one outcome per submitted op — the value
# or the error message — the counters, the completion-hook calls, the
# trace and the heap entries pushed: two per operation the arm served
# (wakeup, completion; its access time is a charge nothing can overtake,
# so the kernel runs it inline), one per refusal by a dead disk, and the
# access time of the write a fault meddles with, which run(until=) stops).
def _hooked(*kinds):
    """What two bracketing op hooks record for these completed ops."""
    return [(which, kind) for kind in kinds for which in ("first", "last")]


_ZERO = bytes(512)
_ARM_SCENARIOS = {
    "read, write": (None, [
        ("write", 0, b"a" * 1024, None), ("read", 0, 2, None),
        ("read", 2048, 4, None), ("write", 2049, b"b" * 512, None),
        ("read", 2048, 4, None)],
        [None, b"a" * 1024, _ZERO * 4, None,
         _ZERO + b"b" * 512 + _ZERO * 2],
        dict(reads=3, writes=2, blocks_read=10, blocks_written=3, seeks=1),
        _hooked("write", "read", "read", "write", "read"),
        ["d0 write", "d0 read", "d0 read", "d0 write", "d0 read"], 10),
    "write-count fault fires on the 2nd write": (2, [
        ("write", 0, b"a" * 512, None), ("read", 0, 1, None),
        ("write", 8, b"b" * 512, None), ("write", 16, b"c" * 512, None),
        ("read", 8, 1, None)],
        [None, b"a" * 512, None, "d0 is dead", "d0 is dead"],
        dict(reads=1, writes=2, blocks_read=1, blocks_written=2, seeks=0),
        # The fault fires inside the 2nd write's hooks: that write is
        # durable and accounted, nothing after it reaches the platter.
        _hooked("write", "read")
        + [("first", "write"), ("fault fired",), ("last", "write")],
        ["d0 write", "d0 read", "d0 write", "d0 failed: armed"], 8),
    "flaky extent": (None, [
        ("flaky", 40, 2, None), ("read", 38, 4, None),
        ("write", 41, b"a" * 512, None), ("read", 0, 1, None)],
        ["d0 unrecoverable media error in blocks [38, 42)",
         "d0 unrecoverable media error in blocks [41, 42)", _ZERO],
        dict(reads=1, writes=0, blocks_read=1, blocks_written=0, seeks=0),
        _hooked("read"),
        ["d0 media error", "d0 media error", "d0 read"], 6),
    "fail() mid-operation": (None, [
        ("write", 0, b"a" * 512, "fail"), ("read", 0, 1, None)],
        ["d0 died mid-operation", "d0 is dead"],
        dict(reads=0, writes=0, blocks_read=0, blocks_written=0, seeks=0),
        [], ["d0 failed: meddled"], 4),
    "fail() + repair() before completion": (None, [
        ("write", 0, b"a" * 512, "fail+repair"), ("read", 0, 1, None)],
        [None, b"a" * 512],
        dict(reads=1, writes=1, blocks_read=1, blocks_written=1, seeks=0),
        _hooked("write", "read"),
        ["d0 failed: meddled", "d0 repaired", "d0 write", "d0 read"], 5),
}


@pytest.mark.parametrize("scenario", _ARM_SCENARIOS)
def test_arm_under_faults(scenario):
    (arm_after_writes, ops, outcomes, counters, hooked, traced,
     events) = _ARM_SCENARIOS[scenario]
    env = Environment()
    tracer = Tracer(env)
    disk = VirtualDisk(env, SMALL, name="d0", tracer=tracer)
    env.run()  # the arm parks on its wakeup store
    hook_calls = []
    disk.add_op_hook(lambda kind: hook_calls.append(("first", kind)))
    if arm_after_writes:
        arm_fail_after_writes(
            disk, arm_after_writes, "armed",
            on_fire=lambda: hook_calls.append(("fault fired",)))
    disk.add_op_hook(lambda kind: hook_calls.append(("last", kind)))
    seen, ended = [], []
    scheduled = env.events_scheduled
    for kind, block, arg, meddle in ops:
        if kind == "flaky":
            disk.mark_flaky(block, arg)
            continue
        done = (disk.read(block, arg) if kind == "read"
                else disk.write(block, arg))
        if meddle:
            env.run(until=env.now + 1e-4)
            disk.fail("meddled")
            if meddle == "fail+repair":
                disk.repair()
        try:
            seen.append(env.run(until=done))
        except DiskIOError as exc:
            seen.append(str(exc))
        ended.append(env.now)
        env.run()
    assert seen == outcomes
    stats = disk.stats.snapshot()
    # Every served operation charges the arm, errors included, and the
    # ops ran back to back: the arm was busy until the last one ended.
    assert stats.pop("busy_time") == ended[-1]
    assert stats == counters
    assert hook_calls == hooked
    assert [record.message for record in tracer.records] == traced
    # A successful operation is traced at the instant it completes.
    assert ([record.time for record in tracer.records
             if record.category == "disk"]
            == [when for when, outcome in zip(ended, seen)
                if not isinstance(outcome, str)])
    assert env.events_scheduled - scheduled == events
    assert disk.failed == ("is dead" in str(seen[-1]))


def test_failure_drains_pending_queue():
    env = Environment()
    disk = make_disk(env)
    results = []

    def reader():
        try:
            yield disk.read(0, 2048)
        except DiskIOError:
            results.append("failed")

    def second_reader():
        try:
            yield disk.read(100, 2048)
        except DiskIOError:
            results.append("failed")

    def killer():
        yield env.timeout(1e-6)
        disk.fail("mid-flight")

    env.process(reader())
    env.process(second_reader())
    env.process(killer())
    env.run()
    assert results == ["failed", "failed"]


def test_repair_restores_service():
    env = Environment()
    disk = make_disk(env)
    disk.fail("test")
    disk.repair()

    def proc():
        yield disk.write(0, b"back")
        return (yield disk.read(0, 1))[:4]

    assert run_process(env, proc()) == b"back"


# ---------------------------------------------------------- schedulers


class _Req:
    def __init__(self, cylinder, tag):
        self.cylinder = cylinder
        self.tag = tag


def test_fcfs_order():
    q = FcfsQueue()
    for i, cyl in enumerate((9, 1, 5)):
        q.push(_Req(cyl, i))
    assert [q.pop(0).tag for _ in range(3)] == [0, 1, 2]
    assert q.pop(0) is None


def test_elevator_sweeps_upward_first():
    q = ElevatorQueue()
    for tag, cyl in enumerate((50, 10, 30)):
        q.push(_Req(cyl, tag))
    # Arm at 20 sweeping up: 30, 50, then reverse to 10.
    order = [q.pop(20).cylinder, q.pop(30).cylinder, q.pop(50).cylinder]
    assert order == [30, 50, 10]


def test_elevator_ties_fifo():
    q = ElevatorQueue()
    q.push(_Req(5, "first"))
    q.push(_Req(5, "second"))
    assert q.pop(0).tag == "first"
    assert q.pop(5).tag == "second"


def test_elevator_ties_fifo_on_down_sweep():
    """Same-cylinder ties must be FIFO in *both* sweep directions."""
    q = ElevatorQueue()
    q.push(_Req(10, "low"))        # forces the up sweep to exhaust first
    q.push(_Req(3, "older"))
    q.push(_Req(3, "newer"))
    assert q.pop(10).tag == "low"  # arm at 10, up sweep
    # Nothing ahead going up: direction reverses at cylinder 10.
    assert q.pop(10).tag == "older"
    assert q.pop(3).tag == "newer"
    assert q.pop(3) is None


def test_elevator_down_sweep_prefers_highest_cylinder_behind_arm():
    q = ElevatorQueue()
    for tag, cyl in enumerate((2, 8, 5)):
        q.push(_Req(cyl, tag))
    q.push(_Req(90, "ahead"))
    assert q.pop(60).tag == "ahead"     # up sweep first
    # Reversed: serve 8, 5, 2 — descending cylinder order.
    assert [q.pop(90).cylinder, q.pop(8).cylinder, q.pop(5).cylinder] \
        == [8, 5, 2]


class _ReferenceElevator:
    """The pre-rewrite O(n²) implementation, kept as the behavioral
    oracle: the bisect-based queue must pop identically."""

    def __init__(self):
        self._pending = []
        self._counter = 0
        self._direction = 1

    def push(self, request):
        self._counter += 1
        self._pending.append((request.cylinder, self._counter, request))

    def pop(self, current_cylinder):
        if not self._pending:
            return None
        chosen = self._best_ahead(current_cylinder)
        if chosen is None:
            self._direction = -self._direction
            chosen = self._best_ahead(current_cylinder)
        self._pending.remove(chosen)
        return chosen[2]

    def _best_ahead(self, current_cylinder):
        if self._direction > 0:
            ahead = [r for r in self._pending if r[0] >= current_cylinder]
            return min(ahead, key=lambda r: (r[0], r[1])) if ahead else None
        ahead = [r for r in self._pending if r[0] <= current_cylinder]
        return max(ahead, key=lambda r: (r[0], -r[1])) if ahead else None


@given(st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("pop"), st.integers(min_value=0, max_value=30)),
), max_size=80))
@settings(max_examples=60, deadline=None)
def test_elevator_rewrite_matches_reference(script):
    fast, slow = ElevatorQueue(), _ReferenceElevator()
    tag = 0
    for action, value in script:
        if action == "push":
            fast.push(_Req(value, tag))
            slow.push(_Req(value, tag))
            tag += 1
        else:
            a, b = fast.pop(value), slow.pop(value)
            assert (a.tag if a else None) == (b.tag if b else None)
    assert len(fast) == len(slow._pending)


def test_make_queue_factory():
    assert isinstance(make_queue("fcfs"), FcfsQueue)
    assert isinstance(make_queue("elevator"), ElevatorQueue)
    with pytest.raises(ValueError):
        make_queue("sstf")


def test_elevator_disk_reduces_seek_time_under_load():
    """Under a batch of scattered requests, SCAN must finish no later
    than FCFS."""
    per_cyl = SMALL.blocks_per_cylinder
    targets = [(i * 37) % 60 for i in range(24)]

    def total_time(discipline):
        env = Environment()
        disk = make_disk(env, discipline=discipline)

        def client(cyl):
            yield disk.read(cyl * per_cyl, 1)

        for cyl in targets:
            env.process(client(cyl))
        env.run()
        return env.now

    assert total_time("elevator") <= total_time("fcfs")


# ------------------------------------------------------------ mirroring


def make_mirror(env, n=2, profile=SMALL):
    disks = [make_disk(env, name=f"d{i}", profile=profile) for i in range(n)]
    return MirroredDiskSet(env, disks), disks


def test_mirror_requires_a_disk():
    env = Environment()
    with pytest.raises(ValueError):
        MirroredDiskSet(env, [])


def test_mirror_write_reaches_all_replicas():
    env = Environment()
    mirror, disks = make_mirror(env)

    def proc():
        yield mirror.write(3, b"replicated")

    run_process(env, proc())
    for disk in disks:
        assert disk.read_raw(3, 1)[:10] == b"replicated"


def test_mirror_write_need_zero_returns_immediately():
    env = Environment()
    mirror, disks = make_mirror(env)

    def proc():
        yield mirror.write(0, b"lazy", need=0)
        return env.now

    assert run_process(env, proc()) == 0.0
    env.run()  # let the background writes finish
    for disk in disks:
        assert disk.read_raw(0, 1)[:4] == b"lazy"


def test_mirror_write_need_one_faster_than_all():
    """With one busy replica, waiting for 1 of 2 writes must complete
    before waiting for 2 of 2 would."""
    env = Environment()
    mirror, disks = make_mirror(env)

    def hog():
        yield disks[1].read(0, 4096)  # keep replica 1 busy

    times = {}

    def writer():
        yield env.timeout(1e-9)  # let the hog enqueue first
        yield mirror.write(0, b"quick", need=1)
        times["one"] = env.now

    env.process(hog())
    env.process(writer())
    env.run()
    assert times["one"] < env.now  # full run includes the slow replica


def test_mirror_read_uses_primary():
    env = Environment()
    mirror, disks = make_mirror(env)
    disks[0].write_raw(7, b"primary data")
    disks[1].write_raw(7, b"replica data")

    def proc():
        data = yield mirror.read(7, 1)
        return data[:12]

    assert run_process(env, proc()) == b"primary data"


def test_mirror_failover_on_primary_death():
    env = Environment()
    mirror, disks = make_mirror(env)
    disks[0].write_raw(7, b"same bytes!")
    disks[1].write_raw(7, b"same bytes!")
    disks[0].fail("primary dead")
    assert mirror.primary is disks[1]

    def proc():
        data = yield mirror.read(7, 1)
        return data[:11]

    assert run_process(env, proc()) == b"same bytes!"


def test_mirror_read_with_failover_mid_flight():
    env = Environment()
    mirror, disks = make_mirror(env)
    for d in disks:
        d.write_raw(0, b"survives")

    def killer():
        yield env.timeout(1e-6)
        disks[0].fail("mid-read")

    def proc():
        data = yield env.process(mirror.read_with_failover(0, 2048))
        return data[:8]

    env.process(killer())
    assert run_process(env, proc()) == b"survives"


def test_mirror_all_dead_raises_server_down():
    env = Environment()
    mirror, disks = make_mirror(env)
    for d in disks:
        d.fail("gone")
    with pytest.raises(ServerDownError):
        mirror.primary

    def proc():
        try:
            yield mirror.write(0, b"x")
        except ServerDownError:
            return "down"

    assert run_process(env, proc()) == "down"


def test_mirror_write_skips_dead_replica():
    env = Environment()
    mirror, disks = make_mirror(env)
    disks[1].fail("gone")

    def proc():
        yield mirror.write(0, b"solo")

    run_process(env, proc())
    assert disks[0].read_raw(0, 1)[:4] == b"solo"
    assert mirror.replica_count == 1


def test_recovery_copies_whole_disk():
    env = Environment()
    mirror, disks = make_mirror(env)
    disks[0].write_raw(0, b"block zero")
    disks[0].write_raw(500, b"block five hundred")
    disks[1].fail("to be recovered")

    def proc():
        blocks = yield env.process(mirror.recover(disks[1]))
        return blocks

    blocks = run_process(env, proc())
    assert blocks == disks[0].total_blocks
    assert disks[1].read_raw(0, 1)[:10] == b"block zero"
    assert disks[1].read_raw(500, 1)[:18] == b"block five hundred"
    assert not disks[1].failed
    assert env.now > 0  # recovery charged simulated time


def test_recovery_copies_holes_as_holes():
    # Regression: the copy used to land every never-written chunk as
    # stored zeros, so the rebuilt disk held its whole capacity in host
    # memory (1.6 M zero blocks on the default 800 MB profile).
    env = Environment()
    profile = DiskProfile(name="8mb", capacity_bytes=8 * MB, cylinders=64,
                          heads=4, sectors_per_track=32)
    mirror, disks = make_mirror(env, profile=profile)
    source, target = disks
    source.write_raw(0, b"\x01" * 1024)      # data at the head of a chunk
    source.write_raw(3000, b"\x02" * 5000)   # ... and inside one
    assert source.used_host_bytes() == 1024 + 5120
    target.fail("to be recovered")
    recovery = env.process(mirror.recover(target))

    def racing_writer():
        # Lands mid-copy: logged dirty, re-copied after the streaming
        # pass. Ahead of the copy the chunk pass would carry it too.
        yield env.timeout(1.0)
        yield mirror.write(9000, b"\x03" * 700)

    env.process(racing_writer())
    env.run(until=recovery)
    assert source.used_host_bytes() == 1024 + 5120 + 1024
    assert target.used_host_bytes() == source.used_host_bytes()
    whole = source.total_blocks
    assert target.read_raw(0, whole) == source.read_raw(0, whole)
    target.check_invariants()


def test_mirror_pads_a_short_tail_once_for_every_replica():
    env = Environment()
    mirror, disks = make_mirror(env)
    run_process(env, _write(mirror, 4, b"x" * 700))
    padded = disks[0].read_raw(4, 2)
    assert padded == b"x" * 700 + bytes(324)
    assert disks[1].read_raw(4, 2) is padded
    mirror.write_raw(40, b"y" * 513)
    assert disks[1].read_raw(40, 2) is disks[0].read_raw(40, 2)


def test_recovery_from_self_rejected():
    env = Environment()
    mirror, disks = make_mirror(env)
    disks[1].fail("x")
    gen = mirror.recover(disks[0])
    with pytest.raises(ValueError):
        # primary is disks[0] only after disks[... wait, disks[0] alive
        run_process(env, gen)


# ------------------------------------------------------- fault injection


def fail_disk_at(env, disk, when):
    """A one-event fault plan: kill ``disk`` at simulated time ``when``."""
    plan = FaultPlan().disk_fail("disk", at=when)
    return FaultController(env, plan).attach_disk("disk", disk).start()


def test_fault_injector_fail_at():
    env = Environment()
    disk = make_disk(env)
    fail_disk_at(env, disk, when=0.5)
    env.run(until=0.4)
    assert not disk.failed
    env.run(until=0.6)
    assert disk.failed


def test_fault_injector_rejects_past_time():
    env = Environment()
    disk = make_disk(env)
    env.run(until=1.0)
    with pytest.raises(BadRequestError):
        fail_disk_at(env, disk, when=0.5)


def test_fault_injector_fail_after_writes():
    env = Environment()
    disk = make_disk(env)
    arm_fail_after_writes(disk, writes=2)
    outcomes = []

    def writer():
        for i in range(4):
            try:
                yield disk.write(i * 10, b"data")
                outcomes.append("ok")
            except DiskIOError:
                outcomes.append("failed")

    env.process(writer())
    env.run()
    assert outcomes[:2] == ["ok", "ok"]
    assert "failed" in outcomes[2:]
