"""Integration tests for the Bullet server: the whole create/read/
size/delete/modify lifecycle, P-FACTOR semantics, caching, crash
recovery, and consistency checking."""

import random
import tracemalloc
from dataclasses import replace

import pytest

from repro.capability import (
    ALL_RIGHTS,
    Capability,
    RIGHT_DELETE,
    RIGHT_MODIFY,
    RIGHT_READ,
    restrict,
)
from repro.client import BulletClient, LocalBulletStub
from repro.core import BulletServer, scan_volume
from repro.errors import (
    BadRequestError,
    CapabilityError,
    ConsistencyError,
    DiskIOError,
    FileTooBigError,
    NoSpaceError,
    NotFoundError,
    ReproError,
    RightsError,
    ServerDownError,
)
from repro.net import Ethernet, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, run_process
from repro.units import KB, MB

from conftest import make_bullet, small_testbed


def call(env, gen):
    """Run one server-process call to completion."""
    return run_process(env, gen)


# ------------------------------------------------------------ lifecycle


def test_create_returns_owner_capability(env, bullet):
    cap = call(env, bullet.create(b"hello bullet", p_factor=2))
    assert cap.port == bullet.port
    assert cap.rights == ALL_RIGHTS
    assert cap.object >= 1


def test_create_then_read_roundtrip(env, bullet):
    payload = bytes(range(256)) * 37
    cap = call(env, bullet.create(payload, p_factor=2))
    assert call(env, bullet.read(cap)) == payload


def test_size_reports_byte_size(env, bullet):
    cap = call(env, bullet.create(b"12345", p_factor=1))
    assert call(env, bullet.size(cap)) == 5


def test_empty_file(env, bullet):
    cap = call(env, bullet.create(b"", p_factor=2))
    assert call(env, bullet.size(cap)) == 0
    assert call(env, bullet.read(cap)) == b""
    call(env, bullet.delete(cap))


def test_delete_removes_file(env, bullet):
    cap = call(env, bullet.create(b"doomed", p_factor=2))
    call(env, bullet.delete(cap))
    with pytest.raises(NotFoundError):
        call(env, bullet.read(cap))


def test_delete_frees_disk_space(env, bullet):
    before = bullet.incarnation.disk_free.free_units
    cap = call(env, bullet.create(bytes(10 * KB), p_factor=2))
    assert bullet.incarnation.disk_free.free_units < before
    call(env, bullet.delete(cap))
    assert bullet.incarnation.disk_free.free_units == before


def test_files_are_immutable_reads_stable(env, bullet):
    cap = call(env, bullet.create(b"version 1", p_factor=2))
    first = call(env, bullet.read(cap))
    second = call(env, bullet.read(cap))
    assert first == second == b"version 1"


def test_many_files_distinct(env, bullet):
    caps = [call(env, bullet.create(f"file {i}".encode(), p_factor=1))
            for i in range(20)]
    assert len({c.object for c in caps}) == 20
    for i, cap in enumerate(caps):
        assert call(env, bullet.read(cap)) == f"file {i}".encode()


def test_write_through_data_on_both_disks(env, bullet):
    payload = b"replicated payload" * 100
    cap = call(env, bullet.create(payload, p_factor=2))
    inode = bullet.incarnation.table.get(cap.object)
    for disk in bullet.mirror.disks:
        raw = disk.read_raw(inode.start_block, bullet.incarnation.layout.blocks_for(inode.size))
        assert raw[: len(payload)] == payload


# -------------------------------------------------------------- security


def test_read_requires_read_right(env, bullet):
    owner = call(env, bullet.create(b"secret", p_factor=1))
    delete_only = restrict(owner, RIGHT_DELETE)
    with pytest.raises(RightsError):
        call(env, bullet.read(delete_only))


def test_delete_requires_delete_right(env, bullet):
    owner = call(env, bullet.create(b"data", p_factor=1))
    reader = restrict(owner, RIGHT_READ)
    with pytest.raises(RightsError):
        call(env, bullet.delete(reader))
    assert call(env, bullet.read(reader)) == b"data"


def test_forged_capability_rejected(env, bullet):
    owner = call(env, bullet.create(b"data", p_factor=1))
    forged = Capability(port=owner.port, object=owner.object,
                        rights=ALL_RIGHTS, check=(owner.check ^ 1))
    with pytest.raises(CapabilityError):
        call(env, bullet.read(forged))


def test_unknown_object_not_found(env, bullet):
    bogus = Capability(port=bullet.port, object=99, rights=ALL_RIGHTS, check=1)
    with pytest.raises(NotFoundError):
        call(env, bullet.read(bogus))
    out_of_range = Capability(port=bullet.port, object=9999,
                              rights=ALL_RIGHTS, check=1)
    with pytest.raises(NotFoundError):
        call(env, bullet.read(out_of_range))


def test_capability_cache_speeds_up_repeat_checks(env, bullet):
    cap = call(env, bullet.create(b"cached cap", p_factor=1))
    call(env, bullet.read(cap))
    call(env, bullet.read(cap))
    assert bullet.stats.cap_check_cache_hits.value >= 1


def test_deleted_object_capability_not_reusable(env, bullet):
    """After delete, a new file may reuse the inode number; the old
    capability must not open the new file (fresh random secret)."""
    old = call(env, bullet.create(b"old", p_factor=1))
    call(env, bullet.delete(old))
    new = call(env, bullet.create(b"new", p_factor=1))
    assert new.object == old.object  # inode number reused
    with pytest.raises((CapabilityError, NotFoundError)):
        call(env, bullet.read(old))


def test_server_restrict(env, bullet):
    owner = call(env, bullet.create(b"x", p_factor=1))
    both = restrict(owner, RIGHT_READ | RIGHT_DELETE)
    reader = call(env, bullet.restrict_cap(both, RIGHT_READ))
    assert reader.rights == RIGHT_READ
    assert call(env, bullet.read(reader)) == b"x"


#: Every operation that takes a capability: (name, rights it demands,
#: further arguments, planes it exists on). TOUCH has no opcode or stub
#: method, and ``status()`` takes no capability. Two mutants of the real
#: server passed all of tier-1 before this table existed: ``size`` and
#: ``touch`` with their ``_check`` removed (DESIGN.md §11).
_CAP_OPS = [
    ("read", RIGHT_READ, (), "local rpc"),
    ("size", RIGHT_READ, (), "local rpc"),
    ("delete", RIGHT_DELETE, (), "local rpc"),
    ("modify", RIGHT_READ | RIGHT_MODIFY, (0, 0, b"+"), "local rpc"),
    ("restrict", 0, (RIGHT_READ,), "local rpc"),
    ("touch", 0, (), "local"),
    ("stat", 0, (), "local rpc"),
]


@pytest.mark.parametrize("attack", ["forged", "reincarnated", "stripped"])
@pytest.mark.parametrize("op, demands, args, planes", _CAP_OPS,
                         ids=[row[0] for row in _CAP_OPS])
def test_every_capability_taking_operation_checks_it(
        env, op, demands, args, planes, attack):
    rpc = RpcTransport(env, Ethernet(env, EthernetProfile()), CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    client = BulletClient(env, rpc, bullet.port)
    operations = []
    if "local" in planes:
        local = LocalBulletStub(bullet)
        operations.append(getattr(local if hasattr(local, op) else bullet, op))
    if "rpc" in planes:
        operations.append(getattr(client, op))
    owner = call(env, bullet.create(b"payload", p_factor=1))
    if attack == "forged":
        presented, error = replace(owner, check=owner.check ^ 1), CapabilityError
    elif attack == "reincarnated":
        # The inode number lives on under a fresh secret: the dead
        # file's capability must not open its successor.
        presented, error = owner, CapabilityError
        call(env, bullet.delete(owner))
        owner = call(env, bullet.create(b"payload", p_factor=1))
        assert owner.object == presented.object
    else:
        # Genuine, but without the rights this operation demands. One
        # that demands none serves a capability that carries none.
        presented = restrict(owner, ALL_RIGHTS & ~demands if demands else 0)
        error = RightsError if demands else None
    for operation in operations:
        if error is None:
            call(env, operation(presented, *args))
        else:
            with pytest.raises(error):
                call(env, operation(presented, *args))
    # Refused means refused: the object is as its owner left it.
    assert call(env, bullet.read(owner)) == b"payload"
    assert bullet.incarnation.table.live_count == 1


# -------------------------------------------------------------- P-FACTOR


def test_p_factor_zero_returns_before_disk_write(env, bullet):
    """P-FACTOR 0 replies after the cache copy; the disks become
    consistent shortly after."""
    writes_before = [d.stats.writes.value for d in bullet.mirror.disks]
    cap = call(env, bullet.create(bytes(64 * KB), p_factor=0))
    # The reply arrived before any disk write completed.
    assert [d.stats.writes.value for d in bullet.mirror.disks] == writes_before
    env.run()  # drain background writes
    inode = bullet.incarnation.table.get(cap.object)
    raw = bullet.mirror.disks[0].read_raw(
        inode.start_block, bullet.incarnation.layout.blocks_for(inode.size))
    assert raw[: 64 * KB] == bytes(64 * KB)


def test_p_factor_ordering(env, bullet):
    """Higher paranoia can only be slower."""
    def timed(p):
        t0 = env.now
        call(env, bullet.create(bytes(32 * KB), p_factor=p))
        env.run()  # drain background writes between measurements
        return env.now - t0

    t0_, t1, t2 = timed(0), timed(1), timed(2)
    assert t0_ < t1 <= t2


def test_p_factor_exceeding_disks_rejected(env, bullet):
    with pytest.raises(BadRequestError):
        call(env, bullet.create(b"x", p_factor=3))
    with pytest.raises(BadRequestError):
        call(env, bullet.create(b"x", p_factor=-1))


def test_p_factor_exceeding_live_disks(env, bullet):
    bullet.mirror.disks[1].fail("gone")
    with pytest.raises(ServerDownError):
        call(env, bullet.create(b"x", p_factor=2))
    # p=1 still works on the surviving disk.
    cap = call(env, bullet.create(b"x", p_factor=1))
    assert call(env, bullet.read(cap)) == b"x"


def test_p_factor_zero_file_lost_on_immediate_crash(env):
    """The paper's stated risk: with P-FACTOR 0, 'if the server crashes
    shortly afterwards the file may be lost'."""
    bullet = make_bullet(env)
    cap = call(env, bullet.create(b"volatile!", p_factor=0))
    # Power-cut both disks before the background writes land.
    for disk in bullet.mirror.disks:
        disk.fail("power cut")
    env.run()
    for disk in bullet.mirror.disks:
        disk.repair()
    rebooted = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet2")
    env.run(until=env.process(rebooted.boot()))
    inode = rebooted.incarnation.table.get(cap.object)
    assert inode.free  # the file never reached any disk


def test_p_factor_one_file_survives_crash(env):
    bullet = make_bullet(env)
    cap = call(env, bullet.create(b"durable!", p_factor=1))
    bullet.crash()
    rebooted = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet2")
    env.run(until=env.process(rebooted.boot()))
    data = call(env, rebooted.read(
        Capability(port=rebooted.port, object=cap.object,
                   rights=cap.rights, check=cap.check)))
    assert data == b"durable!"


# ---------------------------------------------------------------- caching


def test_read_hits_cache_after_create(env, bullet):
    cap = call(env, bullet.create(b"warm", p_factor=2))
    disk_reads_before = bullet.mirror.disks[0].stats.reads.value
    call(env, bullet.read(cap))
    assert bullet.mirror.disks[0].stats.reads.value == disk_reads_before
    assert bullet.incarnation.cache.stats.hits.value >= 1


def test_read_hit_on_an_idle_rig_costs_one_event(env):
    # The server's dispatch, capability check and memcpy and the client's
    # copy of the reply are charges nothing can overtake on an idle rig,
    # so none of them is a heap event (with one each, a hit cost eight).
    # Nor are the request's hand-off to the server, the reply's hand-off
    # back and the client process's completion: each is the next thing
    # due when the resumption that made it ends (four events when they
    # were pushed). What is left: the client process's start.
    rpc = RpcTransport(env, Ethernet(env, EthernetProfile()), CpuProfile())
    bullet = make_bullet(env, transport=rpc, workers=1)
    client = BulletClient(env, rpc, bullet.port)
    cap = call(env, client.create(b"x" * 4096, 2))
    call(env, client.read(cap))
    env.run()
    before = env.events_scheduled
    assert call(env, client.read(cap)) == b"x" * 4096
    assert env.events_scheduled - before == 1


def test_queued_reads_on_one_worker_keep_reply_and_next_request_off_the_heap(
        env):
    # Two clients read a cached file three times each through one
    # worker, so every reply but the last finds the other client's
    # request queued. The worker hands the reply over, takes that request
    # from its inbox at once and yields it: two fresh events, one in each
    # of the kernel's hold slots, and the run loop dispatches both from
    # there, the reply first. With one slot the get pushed the reply and
    # then itself (26 tickets here). What is left: the two start-ups,
    # one request handed to a worker busy with the other, and the seven
    # charges (client marshalling, server dispatch and memcpy) that the
    # other client's turn overtakes.
    rpc = RpcTransport(env, Ethernet(env, EthernetProfile()), CpuProfile())
    bullet = make_bullet(env, transport=rpc, workers=1)
    clients = [BulletClient(env, rpc, bullet.port) for _ in range(2)]
    cap = call(env, clients[0].create(b"x" * 4096, 2))
    call(env, clients[0].read(cap))
    env.run()
    done = []

    def reader(client):
        for _ in range(3):
            assert (yield from client.read(cap)) == b"x" * 4096
            done.append(env.now)

    before = env.events_scheduled
    for client in clients:
        env.process(reader(client))
    env.run()
    assert len(done) == 6
    assert env.events_scheduled - before == 10


def test_cold_read_loads_from_disk(env):
    bullet = make_bullet(env)
    cap = call(env, bullet.create(b"cold data", p_factor=2))
    bullet.crash()
    rebooted = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet2")
    env.run(until=env.process(rebooted.boot()))
    cap2 = Capability(port=rebooted.port, object=cap.object,
                      rights=cap.rights, check=cap.check)
    reads_before = rebooted.mirror.primary.stats.reads.value
    assert call(env, rebooted.read(cap2)) == b"cold data"
    assert rebooted.mirror.primary.stats.reads.value == reads_before + 1
    # Second read is served from the cache.
    assert call(env, rebooted.read(cap2)) == b"cold data"
    assert rebooted.mirror.primary.stats.reads.value == reads_before + 1


def test_cached_read_faster_than_cold_read(env):
    bullet = make_bullet(env)
    cap = call(env, bullet.create(bytes(256 * KB), p_factor=2))
    bullet.evict(cap.object)

    t0 = env.now
    call(env, bullet.read(cap))
    cold = env.now - t0

    t0 = env.now
    call(env, bullet.read(cap))
    warm = env.now - t0
    assert warm < cold / 3


def test_cache_eviction_keeps_serving(env):
    """Fill the cache several times over; every file stays readable."""
    bullet = make_bullet(env)  # 2 MB cache
    caps = [call(env, bullet.create(bytes([i]) * (512 * KB), p_factor=1))
            for i in range(8)]
    assert bullet.incarnation.cache.stats.evictions.value > 0
    for i, cap in enumerate(caps):
        assert call(env, bullet.read(cap)) == bytes([i]) * (512 * KB)
    bullet.incarnation.cache.check_invariants()


def _payload(tag: int, size: int) -> bytes:
    return random.Random(tag).randbytes(size)


def test_block_aligned_file_is_one_object_from_create_to_reply(env, bullet):
    # Contiguous on the host too: the bytes the client handed over are
    # what both platters, the RAM cache and every reply hold — by
    # reference, which is safe because bytes cannot change.
    payload = _payload(1, 1 * MB)
    cap = call(env, bullet.create(payload, p_factor=2))
    inode = bullet.incarnation.table.get(cap.object)
    blocks = bullet.incarnation.layout.blocks_for(inode.size)
    for disk in bullet.mirror.disks:
        assert disk.read_raw(inode.start_block, blocks) is payload
    assert bullet.incarnation.cache.peek(cap.object).data is payload
    assert call(env, bullet.read(cap)) is payload
    # The miss path hands the platter's object to the cache and the reply.
    bullet.evict(cap.object)
    assert call(env, bullet.read(cap)) is payload
    assert bullet.incarnation.cache.peek(cap.object).data is payload


def test_unaligned_file_is_padded_once_for_both_replicas(env, bullet):
    payload = _payload(2, 1 * MB + 100)
    cap = call(env, bullet.create(payload, p_factor=2))
    inode = bullet.incarnation.table.get(cap.object)
    blocks = bullet.incarnation.layout.blocks_for(inode.size)
    first, second = (disk.read_raw(inode.start_block, blocks)
                     for disk in bullet.mirror.disks)
    assert first is second
    assert first == payload + bytes(412)
    assert bullet.incarnation.cache.peek(cap.object).data is payload
    bullet.evict(cap.object)
    assert call(env, bullet.read(cap)) == payload


def test_whole_file_path_copies_no_payload(env, bullet):
    # A copy budget, in the style of the event budgets: eight 1 MB
    # CREATEs at P-FACTOR 2 and eight READ misses may allocate half the
    # payload again on top of the payload itself (the per-block store
    # kept a private copy per replica: 3x and more).
    tracemalloc.start()
    try:
        payloads = [_payload(tag, 1 * MB) for tag in range(8)]
        caps = [call(env, bullet.create(data, p_factor=2))
                for data in payloads]
        misses = bullet.incarnation.cache.stats.misses.value
        for data, cap in zip(payloads, caps):  # LRU over 2 MB: all miss
            assert call(env, bullet.read(cap)) == data
        assert bullet.incarnation.cache.stats.misses.value == misses + 8
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * MB


def test_inode_index_tracks_cache_state(env, bullet):
    cap = call(env, bullet.create(b"indexed", p_factor=1))
    inode = bullet.incarnation.table.get(cap.object)
    assert inode.index != 0
    assert bullet.incarnation.cache.peek(cap.object).number == inode.index
    # A cache-filling create evicts it; on_evict must clear the index.
    call(env, bullet.create(bytes(2 * MB), p_factor=0))
    assert bullet.incarnation.table.get(cap.object).index == 0
    assert bullet.incarnation.cache.peek(cap.object) is None
    # A subsequent read reloads it from disk and restores the index.
    env.run()  # drain background writes first
    assert call(env, bullet.read(cap)) == b"indexed"
    assert bullet.incarnation.table.get(cap.object).index != 0


def test_a_failed_load_leaves_no_reservation_behind(env, bullet):
    """A cold READ or MODIFY whose extent fails on every replica raises,
    and the miss unwinds: no rnode, no inode.index, no cache bytes. The
    next READ goes to disk again instead of counting the abandoned
    reservation as a hit and returning an empty file."""

    def outcome(gen):
        try:
            return (yield from gen)
        except ReproError as exc:
            return exc

    payload = bytes(range(256)) * 4 + b"tail" * 19  # 1 100 bytes
    cap = call(env, bullet.create(payload, p_factor=2))
    env.run()
    bullet.evict(cap.object)
    inode = bullet.incarnation.table.get(cap.object)
    extent = (inode.start_block, bullet.incarnation.layout.blocks_for(inode.size))
    for disk in bullet.mirror.disks:
        disk.mark_flaky(*extent)
    used = bullet.incarnation.cache.used_bytes
    # Two concurrent cold readers: the second waits on the first's write
    # lock and re-probes only after the first's load has failed.
    procs = [env.process(outcome(bullet.read(cap))) for _ in range(2)]
    procs.append(env.process(outcome(
        bullet.modify(cap, 0, 4, b"HEAD", p_factor=2))))
    env.run()
    for proc in procs:
        assert isinstance(proc.value, DiskIOError)
    assert bullet.incarnation.table.get(cap.object).index == 0
    assert bullet.incarnation.cache.peek(cap.object) is None
    assert bullet.incarnation.cache.used_bytes == used
    bullet.incarnation.cache.check_invariants()

    for disk in bullet.mirror.disks:
        disk.clear_flaky(*extent)
    misses = bullet.incarnation.cache.stats.misses.value
    assert call(env, bullet.read(cap)) == payload
    assert bullet.incarnation.cache.stats.misses.value == misses + 1
    bullet.evict(cap.object)
    derived = call(env, bullet.modify(cap, 0, 4, b"HEAD", p_factor=2))
    assert call(env, bullet.read(derived)) == b"HEAD" + payload[4:]
    env.run()
    assert bullet.incarnation.cache.used_bytes == used + 2 * len(payload)
    bullet.incarnation.cache.check_invariants()


def test_file_too_big_for_memory_rejected(env, bullet):
    with pytest.raises(FileTooBigError):
        call(env, bullet.create(bytes(3 * MB), p_factor=0))


# ----------------------------------------------------------------- modify


def test_modify_creates_new_version(env, bullet):
    v1 = call(env, bullet.create(b"the quick brown fox", p_factor=1))
    v2 = call(env, bullet.modify(v1, offset=4, delete_bytes=5,
                                 insert_data=b"slow", p_factor=1))
    assert call(env, bullet.read(v2)) == b"the slow brown fox"
    # Immutability: v1 is untouched.
    assert call(env, bullet.read(v1)) == b"the quick brown fox"
    assert v1.object != v2.object


def test_modify_append(env, bullet):
    v1 = call(env, bullet.create(b"log line 1\n", p_factor=1))
    v2 = call(env, bullet.modify(v1, offset=11, delete_bytes=0,
                                 insert_data=b"log line 2\n", p_factor=1))
    assert call(env, bullet.read(v2)) == b"log line 1\nlog line 2\n"


def test_modify_pure_delete(env, bullet):
    v1 = call(env, bullet.create(b"abcdef", p_factor=1))
    v2 = call(env, bullet.modify(v1, offset=2, delete_bytes=2,
                                 insert_data=b"", p_factor=1))
    assert call(env, bullet.read(v2)) == b"abef"


def test_modify_range_validation(env, bullet):
    v1 = call(env, bullet.create(b"short", p_factor=1))
    with pytest.raises(BadRequestError):
        call(env, bullet.modify(v1, offset=4, delete_bytes=5, insert_data=b""))
    with pytest.raises(BadRequestError):
        call(env, bullet.modify(v1, offset=-1, delete_bytes=0, insert_data=b""))


def test_modify_requires_modify_right(env, bullet):
    v1 = call(env, bullet.create(b"data", p_factor=1))
    reader = restrict(v1, RIGHT_READ)
    with pytest.raises(RightsError):
        call(env, bullet.modify(reader, offset=0, delete_bytes=0,
                                insert_data=b"x"))


# ------------------------------------------------------- space exhaustion


def test_disk_exhaustion_raises_no_space(env):
    bullet = make_bullet(env)
    data_bytes = bullet.incarnation.disk_free.free_units * bullet.incarnation.layout.block_size
    chunk = 1 * MB
    caps = []
    with pytest.raises(NoSpaceError):
        for _ in range(data_bytes // chunk + 2):
            caps.append(call(env, bullet.create(bytes(chunk), p_factor=0)))
    # Failure must not corrupt accounting: delete everything, space returns.
    for cap in caps:
        call(env, bullet.delete(cap))
    assert bullet.incarnation.disk_free.free_units == data_bytes // bullet.incarnation.layout.block_size
    bullet.incarnation.disk_free.check_invariants()


def test_inode_exhaustion(env):
    # 32 inodes fill exactly one inode-table block (512 / 16); inode 0 is
    # the descriptor, so 31 files fit.
    bullet = make_bullet(env, testbed=small_testbed(inode_count=32))
    for i in range(31):
        call(env, bullet.create(f"{i}".encode(), p_factor=0))
    with pytest.raises(NoSpaceError):
        call(env, bullet.create(b"one too many", p_factor=0))


# -------------------------------------------------------------- recovery


def test_reboot_preserves_files_and_free_space(env):
    bullet = make_bullet(env)
    caps = [call(env, bullet.create(f"persistent {i}".encode() * 50, p_factor=2))
            for i in range(5)]
    call(env, bullet.delete(caps[2]))
    free_before = bullet.incarnation.disk_free.free_units
    bullet.crash()
    rebooted = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet2")
    report = env.run(until=env.process(rebooted.boot()))
    assert report.live_files == 4
    assert rebooted.incarnation.disk_free.free_units == free_before
    for i, cap in enumerate(caps):
        if i == 2:
            continue
        cap2 = Capability(port=rebooted.port, object=cap.object,
                          rights=cap.rights, check=cap.check)
        assert call(env, rebooted.read(cap2)) == f"persistent {i}".encode() * 50


def test_scan_detects_overlapping_files(env, bullet):
    call(env, bullet.create(bytes(4 * KB), p_factor=1))
    call(env, bullet.create(bytes(4 * KB), p_factor=1))
    # Corrupt: make inode 2 overlap inode 1's extent.
    bullet.incarnation.table.get(2).start_block = bullet.incarnation.table.get(1).start_block
    with pytest.raises(ConsistencyError):
        scan_volume(bullet.incarnation.table, bullet.incarnation.layout)


def test_scan_detects_extent_outside_data_area(env, bullet):
    call(env, bullet.create(bytes(4 * KB), p_factor=1))
    bullet.incarnation.table.get(1).start_block = 0  # inside the inode table!
    with pytest.raises(ConsistencyError):
        scan_volume(bullet.incarnation.table, bullet.incarnation.layout)


def test_disk_failover_during_reads(env):
    """Primary dies mid-workload; reads continue from the replica."""
    bullet = make_bullet(env)
    cap = call(env, bullet.create(bytes(512 * KB), p_factor=2))
    bullet.incarnation.cache.remove(cap.object)
    bullet.incarnation.table.get(cap.object).index = 0
    bullet.mirror.disks[0].fail("primary died")
    assert call(env, bullet.read(cap)) == bytes(512 * KB)


def test_status_snapshot(env, bullet):
    cap = call(env, bullet.create(b"x" * 100, p_factor=1))
    call(env, bullet.read(cap))
    status = bullet.status()
    assert status["files"] == 1
    assert status["creates"] == 1
    assert status["reads"] == 1
    assert status["replicas_live"] == 2
    assert status["bytes_created"] == 100


def test_render_layout_shows_files_and_holes(env, bullet):
    call(env, bullet.create(bytes(8 * KB), p_factor=1))
    art = bullet.render_layout()
    assert "Disk Descriptor" in art
    assert "Inode Table" in art
    assert "inode 1" in art
    assert "free" in art


#: Every local operation of the server, as a call on ``(server, cap)``:
#: a process generator, or the operation itself for a synchronous one.
LOCAL_OPERATIONS = {
    "create": lambda server, cap: server.create(b"x", p_factor=0),
    "read": lambda server, cap: server.read(cap),
    "size": lambda server, cap: server.size(cap),
    "delete": lambda server, cap: server.delete(cap),
    "modify": lambda server, cap: server.modify(cap, 0, 0, b"y"),
    "restrict_cap": lambda server, cap: server.restrict_cap(cap, 0),
    "touch": lambda server, cap: server.touch(cap),
    "age_all": lambda server, cap: server.age_all(),
    "stat": lambda server, cap: server.stat(cap),
    "evict": lambda server, cap: server.evict(cap.object),
    "lives_of": lambda server, cap: server.lives_of(cap.object),
    "status": lambda server, cap: server.status(),
    "render_layout": lambda server, cap: server.render_layout(),
}


def test_operations_require_boot(env):
    """Before boot and after a crash every local operation is refused
    with BadRequestError, before it touches the volume's RAM state: a
    crashed server checks no capability against the dead incarnation's
    table and adds nothing to its verified-capability cache (boot()
    builds that cache, empty, so an unbooted server has none)."""
    def cached(server):
        return len(getattr(server._endpoint, "verified_caps", ()))

    def refused(server, cap):
        before = cached(server)
        for name, operation in LOCAL_OPERATIONS.items():
            with pytest.raises(BadRequestError, match="not booted"):
                result = operation(server, cap)
                if hasattr(result, "send"):
                    call(env, result)
            assert cached(server) == before, name

    testbed = small_testbed()
    from repro.disk import MirroredDiskSet, VirtualDisk
    disks = [VirtualDisk(env, testbed.disk, name="x")]
    server = BulletServer(env, MirroredDiskSet(env, disks), testbed)
    refused(server, Capability(port=server.port, object=1,
                               rights=ALL_RIGHTS, check=0))

    server = make_bullet(env)
    cap = call(env, server.create(b"x" * 100, p_factor=2))
    call(env, server.read(cap))
    server.crash()
    assert cached(server) == 1      # the READ's check, on the dead one
    checks = server.stats.cap_checks.value
    refused(server, cap)
    assert server.stats.cap_checks.value == checks
