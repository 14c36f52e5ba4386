"""The fault matrix: (fault kind x operation x seed) end-to-end cells.

Every cell builds a fresh networked world (Bullet server on mirrored
disks behind Amoeba-style RPC), pre-loads files, runs one fault scenario
from a declarative :class:`FaultPlan` while a client performs the cell's
operation mid-fault, and then verifies:

* the operation either succeeded (possibly after retries/backoff) or
  raised a typed :class:`ReproError` — never hung (a hard simulated-time
  ceiling guards every cell);
* no stored file was corrupted: after the dust settles the server is
  crashed and rebooted from its disks, and every file's bytes must
  read back exactly (the scan-on-startup consistency path runs too).

Cells are parametrized over two master seeds; each must pass
deterministically under both.
"""

import pytest

from repro.client import BulletClient, DirectoryClient, LocalBulletStub, RetryPolicy
from repro.core import OPCODES, BulletServer
from repro.core.inode import InodeTable
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import ReproError, ServerDownError
from repro.faults import FaultController, FaultPlan
from repro.net import Ethernet, RpcRequest, RpcTransport
from repro.nfs import NfsClient, NfsServer
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import AnyOf, Environment, SeededStream, Tracer, run_process

from conftest import SMALL_DISK, make_bullet, reference_env, small_testbed

#: Simulated-time ceiling per cell: generous against the largest fault
#: window (~2 s) plus full retry schedules, tiny against wall-clock.
CEILING = 120.0

SEEDS = [3, 17]

RETRY = RetryPolicy(max_attempts=10, base_delay=0.2, multiplier=2.0,
                    max_delay=1.0, jitter=0.1)


class World:
    """One networked test world plus its fault-plane bookkeeping."""

    def __init__(self, seed: int, **server_kwargs):
        self.seed = seed
        self.env = Environment()
        self.tracer = Tracer(self.env)
        self.eth = Ethernet(self.env, EthernetProfile())
        self.rpc = RpcTransport(self.env, self.eth, CpuProfile())
        self.bullet = make_bullet(self.env, transport=self.rpc,
                                  **server_kwargs)
        self.client = BulletClient(
            self.env, self.rpc, self.bullet.port, timeout=0.5,
            retry=RETRY, retry_stream=SeededStream(seed, "client-retry"),
            tracer=self.tracer,
        )
        # Known-good files created before any fault is armed; the cell's
        # post-fault audit reads all of them back.
        self.expected: dict = {}  # Capability -> bytes
        for i in range(3):
            payload = bytes([i]) * (1024 + 512 * i)
            cap = run_process(self.env, self.bullet.create(payload, 2))
            self.expected[cap] = payload

    def controller(self, plan: FaultPlan) -> FaultController:
        ctrl = FaultController(self.env, plan, master_seed=self.seed,
                               tracer=self.tracer)
        for disk in self.bullet.mirror.disks:
            ctrl.attach_disk(disk.name, disk)
        ctrl.attach_ethernet("net", self.eth)
        ctrl.attach_server("bullet", self.bullet)
        return ctrl

    def run_to_completion(self, gen):
        """The no-hang harness: the scenario must finish before the
        ceiling; typed errors propagate, hangs fail the test."""
        done = self.env.process(gen)
        self.env.run(until=AnyOf(self.env, [done, self.env.timeout(CEILING)]))
        assert done.triggered, "fault cell hung past the simulated ceiling"
        if not done.ok:
            raise done.value
        return done.value

    def audit_storage(self):
        """Reboot from disk and byte-compare every known file."""
        self.bullet.crash()
        reborn = BulletServer(self.env, self.bullet.mirror,
                              self.bullet.testbed, name="bullet")
        self.env.run(until=self.env.process(reborn.boot()))
        for cap, payload in self.expected.items():
            assert run_process(self.env, reborn.read(cap)) == payload
        return reborn


def _flaky_extent_of(world: World):
    """The on-disk extent of one pre-created file (so a flaky window is
    guaranteed to cover blocks a read will touch)."""
    cap = next(iter(world.expected))
    inode = world.bullet.incarnation.table.get(cap.object)
    nblocks = world.bullet.incarnation.layout.blocks_for(inode.size)
    return cap, inode.start_block, nblocks


def _plan_for(world: World, kind: str, t0: float) -> FaultPlan:
    primary = world.bullet.mirror.disks[0].name
    if kind == "disk.fail":
        return FaultPlan().disk_fail(primary, at=t0 + 0.1)
    if kind == "disk.degrade":
        return FaultPlan().disk_degrade(primary, at=t0 + 0.1, factor=10.0,
                                        duration=1.5)
    if kind == "disk.flaky":
        _cap, start, nblocks = _flaky_extent_of(world)
        return FaultPlan().disk_flaky(primary, at=t0 + 0.1,
                                      start_block=start, nblocks=nblocks,
                                      duration=1.5)
    if kind == "net.partition":
        return FaultPlan().net_partition(at=t0 + 0.1, duration=2.0)
    if kind == "net.loss":
        return FaultPlan().net_loss(at=t0 + 0.1, duration=1.5,
                                    probability=0.4)
    if kind == "net.latency":
        return FaultPlan().net_latency(at=t0 + 0.1, duration=1.5,
                                       extra=0.005)
    if kind == "server.crash":
        return (FaultPlan().server_crash("bullet", at=t0 + 0.1)
                           .server_restart("bullet", at=t0 + 1.2))
    raise AssertionError(f"unknown matrix kind {kind}")


FAULT_KINDS = ["disk.fail", "disk.degrade", "disk.flaky", "net.partition",
               "net.loss", "net.latency", "server.crash"]
OPERATIONS = ["read", "create", "size"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("op", OPERATIONS)
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_matrix_cell(kind, op, seed):
    world = World(seed)
    env = world.env
    t0 = env.now
    ctrl = world.controller(_plan_for(world, kind, t0)).start()
    target_cap = next(iter(world.expected))
    if kind == "disk.flaky":
        # Force the mid-fault read down the disk path (cache hits would
        # trivially dodge the flaky extent).
        world.bullet.evict(target_cap.object)

    def scenario():
        yield env.timeout(0.2)  # now inside the fault window
        if op == "read":
            data = yield from world.client.read(target_cap)
            assert data == world.expected[target_cap]
        elif op == "create":
            payload = b"mid-fault file " * 64
            cap = yield from world.client.create(payload, 1)
            world.expected[cap] = payload
        elif op == "size":
            size = yield from world.client.size(target_cap)
            assert size == len(world.expected[target_cap])
        # Let every window close and background writes settle.
        yield env.timeout(max(t0 + 4.0 - env.now, 0.0))
        return True

    try:
        assert world.run_to_completion(scenario()) is True
        succeeded = True
    except ReproError:
        # A typed, explainable failure is an acceptable cell outcome —
        # silent hangs and corruption are not.
        succeeded = False
        world.run_to_completion(_settle(env, t0))
    # Whatever happened to the in-flight op, stored files are intact.
    world.audit_storage()
    # Every cell must actually have injected its fault.
    assert ctrl.firings, "fault plan never fired"
    if kind in ("net.partition", "server.crash"):
        # These cells exist to exercise retry/backoff: the operation
        # must have come through after the fault cleared.
        assert succeeded
        assert world.client.retrier.retries > 0


def _settle(env, t0):
    yield env.timeout(max(t0 + 4.0 - env.now, 0.0))
    return True


@pytest.mark.parametrize("seed", SEEDS)
def test_create_retry_is_deduplicated_by_txid(seed):
    """A CREATE whose reply is lost to a loss window must not create the
    file twice: the pre-assigned txid turns the client's retries into
    reply-replays at the server."""
    world = World(seed)
    env = world.env
    t0 = env.now
    world.controller(
        FaultPlan().net_loss(at=t0 + 0.05, duration=1.5, probability=0.6)
    ).start()
    live_before = world.bullet.incarnation.table.live_count

    def scenario():
        yield env.timeout(0.1)
        payload = b"exactly-once " * 100
        cap = yield from world.client.create(payload, 1)
        world.expected[cap] = payload
        yield env.timeout(max(t0 + 4.0 - env.now, 0.0))
        return True

    assert world.run_to_completion(scenario()) is True
    assert world.bullet.incarnation.table.live_count == live_before + 1
    world.audit_storage()


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_mid_create_recovers_consistently(seed):
    """The P-FACTOR x mid-CREATE crash corner: the server is killed while
    a large CREATE is being served. The client's deduped retry re-runs
    the transaction against the rebooted server (its reply cache died
    with it); the half-written first attempt is at worst an unreferenced
    extent, which the startup scan and GC story absorb — never an inode
    pointing at garbage."""
    world = World(seed)
    env = world.env
    t0 = env.now
    # Crash very shortly after the CREATE request lands, then restart.
    world.controller(
        FaultPlan().server_crash("bullet", at=t0 + 0.13)
                   .server_restart("bullet", at=t0 + 1.0)
    ).start()

    def scenario():
        yield env.timeout(0.1)
        payload = b"big enough to be mid-flight " * 2000
        cap = yield from world.client.create(payload, 1)
        world.expected[cap] = payload
        data = yield from world.client.read(cap)
        assert data == payload
        yield env.timeout(max(t0 + 4.0 - env.now, 0.0))
        return True

    assert world.run_to_completion(scenario()) is True
    reborn = world.audit_storage()
    # The startup scan repaired/accounted everything it found.
    reborn.incarnation.disk_free.check_invariants()


# ------------------------------------------ a crash ends the incarnation
#
# Inode block 0 holds inodes 1-31, so a 32nd file's inode lives in block
# 1. A 600 000-byte CREATE takes long enough to cross a crash. Had the
# dead incarnation's replica writes gone on, its inode-block write would
# land after the next boot's scan, and the boot after that would find
# two files on one extent.

BIG = 600_000


def _a1_world():
    env = Environment()
    rpc = RpcTransport(env, Ethernet(env, EthernetProfile()), CpuProfile())
    server = make_bullet(env, transport=rpc)
    caps = [run_process(env, server.create(bytes([i]) * 100, 2))
            for i in range(31)]
    assert server.incarnation.table.block_of_inode(caps[-1].object) == 0
    client = BulletClient(env, rpc, server.port)

    def doomed_create():
        with pytest.raises(ServerDownError):
            yield from client.create(b"x" * BIG, 2)

    return env, server, caps, env.process(doomed_create())


def _survives_the_next_incarnation(env, server, caps):
    """DELETE file 1, CREATE a file as big as the dead one, reboot: the
    scan must pass and both survivors read back."""
    run_process(env, server.delete(caps[0]))
    cap = run_process(env, server.create(b"y" * BIG, 2))
    server.crash()
    run_process(env, server.boot())
    assert run_process(env, server.read(cap)) == b"y" * BIG
    assert run_process(env, server.read(caps[1])) == bytes([1]) * 100


def test_a_crashed_incarnation_issues_no_write_after_the_crash():
    env, server, caps, doomed = _a1_world()
    env.run(until=env.now + 0.9)
    assert doomed.is_alive
    server.crash()
    run_process(env, server.boot())
    env.run(until=env.now + 2.0)  # long past any write of the dead one
    assert server.status()["files"] == 31
    _survives_the_next_incarnation(env, server, caps)


def test_a_request_the_disk_already_holds_completes_after_the_crash():
    """The crash lands while bd0 is writing the inode block and bd1,
    slowed down, is still writing the data extent. Each disk finishes
    the request it holds (DESIGN.md §5c): bd0 gets the inode, and the
    boot's table read, queued behind it, sees a whole file. bd1 never
    gets the inode block: the dead incarnation issues nothing new."""
    env, server, caps, doomed = _a1_world()
    bd0, bd1 = server.mirror.disks
    bd1.set_slowdown(2.0)
    writes_at_crash = []

    def crash_soon():
        yield env.timeout(1e-6)  # bd0 has taken the inode-block write
        writes_at_crash.extend((bd0.stats.writes.value,
                                bd1.stats.writes.value))
        server.crash()

    def after_the_data_extent(kind):
        bd0.remove_op_hook(after_the_data_extent)
        env.process(crash_soon())

    bd0.add_op_hook(after_the_data_extent)
    env.run(until=doomed)
    run_process(env, server.boot())
    env.run(until=env.now + 2.0)
    assert (bd0.stats.writes.value - writes_at_crash[0],
            bd1.stats.writes.value - writes_at_crash[1]) == (1, 1)
    number = caps[-1].object + 1
    assert not server.incarnation.table.get(number).free
    layout = server.incarnation.layout
    on_bd1 = InodeTable.decode(
        bd1.read_raw(0, layout.inode_table_blocks), bd1.block_size)
    assert on_bd1.get(number).free
    _survives_the_next_incarnation(env, server, caps)


def _bullet_local_call(op):
    """A Bullet server holding one 600 000-byte file, and a local-plane
    ``op`` with the instant to crash it at: a CREATE in its memcpy, a
    DELETE in its capability check, a DELETE or an AGE sweep waiting for
    the write lock that a READ holds through its memcpy (so that a
    reboot is done before it checks anything)."""
    env = Environment()
    server = make_bullet(env)
    kept = b"k" * BIG
    cap = run_process(env, server.create(kept, 2))
    cpu = server.testbed.cpu
    if op == "create":
        call, crash_after = server.create(b"z" * BIG, 2), 0.01
    elif op == "delete":
        call = server.delete(cap)
        crash_after = cpu.request_dispatch + cpu.capability_check / 2
    else:
        env.process(server.read(cap))
        call = server.delete(cap) if op == "queued_delete" else server.age_all()
        crash_after = 0.01
    return (env, server, server.mirror.disks, call, crash_after,
            lambda: run_process(env, server.read(cap)) == kept)


def _nfs_local_call(_op):
    """An NFS server holding one 8 KB file, and a local-plane WRITE over
    it crashed 0.5 ms into its charge."""
    env = Environment()
    disk = VirtualDisk(env, SMALL_DISK, name="nfsdisk")
    server = NfsServer(env, disk, small_testbed())
    server.format()
    run_process(env, server.boot())
    fh = run_process(env, server.create(server.root_handle, "f"))
    kept = bytes(range(256)) * 32
    run_process(env, server.write(fh, 0, kept))
    return (env, server, [disk], server.write(fh, 0, b"w" * len(kept)),
            0.0005, lambda: run_process(env, server.read(fh, 0, 8192)) == kept)


_LOCAL_CALLS = {"create": _bullet_local_call, "delete": _bullet_local_call,
                "queued_delete": _bullet_local_call,
                "age": _bullet_local_call, "nfs_write": _nfs_local_call}


#: Every call, left down or rebooted. CREATE's rows keep their old ids,
#: ``down`` and ``rebooted``.
_LOCAL_CALL_CASES = [
    pytest.param(op, reboot, id=("" if op == "create" else f"{op}-")
                 + ("rebooted" if reboot else "down"))
    for op in _LOCAL_CALLS for reboot in (False, True)]


@pytest.mark.parametrize("op, reboot", _LOCAL_CALL_CASES)
def test_a_local_call_that_outlives_its_incarnation_writes_nothing(
        op, reboot):
    """A local-plane call runs in its caller's process, which a crash
    does not stop. Crashed mid-call, it must still issue no disk write
    and fail with ServerDownError, also when the server has booted
    again meanwhile: the free extent, inode, lives, verified
    capabilities or buffer cache it would change belong to the dead
    incarnation, and the next incarnation reads the file back as it
    was."""
    env, server, disks, call, crash_after, reads_back = _LOCAL_CALLS[op](op)

    def doomed():
        with pytest.raises(ServerDownError):
            yield from call

    proc = env.process(doomed())
    env.run(until=env.now + crash_after)
    assert proc.is_alive
    dead = server.incarnation
    server.crash()
    writes = [disk.stats.writes.value for disk in disks]
    if reboot:
        run_process(env, server.boot())
    env.run(until=proc)
    env.run(until=env.now + 2.0)
    assert [disk.stats.writes.value for disk in disks] == writes
    assert not dead.members and not server.incarnation.members
    if reboot:
        if isinstance(server, BulletServer):  # it verified nothing here
            assert len(server.incarnation.verified_caps) == 0
        assert reads_back()


@pytest.mark.parametrize("reboot", [False, True], ids=["down", "rebooted"])
def test_a_read_that_outlives_its_incarnation_leaves_the_next_one_alone(
        reboot):
    """A local READ of an evicted 8 KB file queues its lock upgrade
    behind a reader that holds the file for 200 ms, and the server
    crashes 10 ms in. The READ works on the incarnation it started in
    and refuses before it reserves cache space, so the next
    incarnation's inode keeps ``index == 0`` and its own READ loads the
    file. Revalidated against the next incarnation's table, the stale
    READ used to write the dead cache's rnode number into it, and the
    live server's next READ failed with a ConsistencyError."""
    env = Environment()
    server = make_bullet(env)
    data = bytes(range(256)) * 32
    cap = run_process(env, server.create(data, 1))
    server.evict(cap.object)

    def holder():
        with server.incarnation.locks.reading(cap.object) as lock:
            yield lock.grant
            yield env.timeout(0.2)

    outcome = []

    def stale_read():
        try:
            outcome.append((yield from server.read(cap)))
        except ServerDownError as exc:
            outcome.append(exc)

    env.process(holder())
    proc = env.process(stale_read())
    env.run(until=env.now + 0.01)
    assert proc.is_alive
    server.crash()
    if reboot:
        run_process(env, server.boot())
    env.run(until=proc)
    if not reboot:
        run_process(env, server.boot())
    index = server.incarnation.table.get(cap.object).index
    assert run_process(env, server.read(cap)) == data
    assert index == 0
    assert isinstance(outcome[0], ServerDownError)


def _dead_free_maps(env, server):
    """The undo paths a stale handler can still run on a dead
    incarnation's free maps after the reboot: compaction handing back
    its claim, a failed load removing its rnode."""
    cap = run_process(env, server.create(bytes(8 * 1024), 1))
    dead = server.incarnation
    inode = dead.table.get(cap.object)
    server.crash()
    run_process(env, server.boot())

    def last_moves():
        dead.disk_free.free(inode.start_block,
                            dead.layout.blocks_for(inode.size))
        dead.cache.remove(cap.object)

    def truth():
        live = server.incarnation
        return {area: (f.external_fragmentation(), f.free_units,
                       f.largest_hole)
                for area, f in (("bullet:disk", live.disk_free),
                                ("bullet:cache", live.cache._arena))}

    def readings():
        return {area: tuple(server.metrics.value(f"repro_freelist_{name}",
                                                 area=area)
                            for name in ("fragmentation", "free_units",
                                         "largest_hole"))
                for area in ("bullet:disk", "bullet:cache")}

    return last_moves, truth, readings


def _dead_lock_table(env, server):
    """A READ of an evicted file queues its lock upgrade behind a reader
    that holds it for 200 ms, the server crashes 10 ms in and reboots,
    and a live reader then holds one grant in the next table: the dead
    grants are given back after the reboot."""
    cap = run_process(env, server.create(bytes(8 * 1024), 1))
    server.evict(cap.object)

    def holder(locks, seconds):
        with locks.reading(cap.object) as lock:
            yield lock.grant
            yield env.timeout(seconds)

    def stale_read():
        with pytest.raises(ServerDownError):
            yield from server.read(cap)

    env.process(holder(server.incarnation.locks, 0.2))
    stale = env.process(stale_read())
    env.run(until=env.now + 0.01)
    server.crash()
    run_process(env, server.boot())
    env.process(holder(server.incarnation.locks, 1.0))
    env.run(until=env.now + 0.001)

    def truth():
        return len(server.incarnation.locks.held_keys())

    def readings():
        return server.metrics.value("repro_lock_held", server=server.name)

    assert truth() == 1
    return (lambda: env.run(until=stale)), truth, readings


@pytest.mark.parametrize("dead", [_dead_free_maps, _dead_lock_table],
                         ids=["free_maps", "lock_table"])
def test_a_dead_incarnation_moves_no_gauge(dead):
    """Every gauge reads the incarnation that booted last, so what a
    stale handler still does to a dead incarnation's tables after the
    reboot moves no gauge: before and after those last moves, each
    gauge shows the live incarnation's table. A lock table used to
    publish its count on every grant and release, so a dead grant given
    back set ``repro_lock_held`` to the dead table's count."""
    env = Environment()
    server = make_bullet(env)
    last_moves, truth, readings = dead(env, server)
    assert readings() == truth()
    last_moves()
    assert readings() == truth()


#: Crash points of an online compaction pass over six 32 KB survivors
#: (ms into the pass, and whether the boot comes at once or 50 ms
#: later). Before the pass was bound to its incarnation, each left a
#: volume the last boot refused (an extent overlapping another file) or
#: an acknowledged file that read back wrong.
_COMPACTION_CRASHES = [(2, False), (60, False), (136, False), (214, False),
                       (378, False), (10, True), (40, True), (86, True),
                       (246, True), (328, True)]


@pytest.mark.parametrize("crash_ms, late", _COMPACTION_CRASHES)
def test_a_compaction_pass_that_outlives_its_incarnation_writes_nothing(
        crash_ms, late):
    """The pass is still moving files when the server crashes. It must
    end at its next write with ServerDownError, and never move a file in
    the next incarnation's tables: the disk gauges show the next
    incarnation's free map, and files created after the reboot and
    every survivor read back after one more crash and boot."""
    from repro.core import compact_disk

    env = Environment()
    server = make_bullet(env)
    size = 32 * 1024
    caps = [run_process(env, server.create(bytes([n]) * size, 1))
            for n in range(12)]
    for cap in caps[::2]:
        run_process(env, server.delete(cap))
    kept = {cap: bytes([n]) * size for n, cap in enumerate(caps) if n % 2}
    ended = []

    def compaction():
        with pytest.raises(ServerDownError):
            yield from compact_disk(server)
        ended.append(env.now)

    sweep = env.process(compaction())
    env.run(until=env.now + crash_ms / 1000)
    server.crash()
    if late:
        env.run(until=env.now + 0.05)
    run_process(env, server.boot())
    if sweep.is_alive:
        env.run(until=sweep)
    gauges = [server.metrics.find(f"repro_freelist_{name}",
                                  area="bullet:disk").value
              for name in ("fragmentation", "free_units", "largest_hole")]
    disk_free = server.incarnation.disk_free  # the gauges show this one
    assert gauges == [disk_free.external_fragmentation(),
                      disk_free.free_units, disk_free.largest_hole]
    for n in range(3):
        data = bytes([100 + n]) * size
        kept[run_process(env, server.create(data, 1))] = data
    env.run(until=env.now + 10.0)
    assert ended
    server.crash()
    run_process(env, server.boot())
    for cap, data in kept.items():
        assert run_process(env, server.read(cap)) == data


def test_a_crash_stops_the_resend_of_a_cached_reply():
    """A duplicate READ is answered by resending its cached 64 KB reply.
    The resend is a process of the incarnation, so a crash 5 ms into it
    fails the client and puts nothing more on the wire."""
    env = Environment()
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    server = make_bullet(env, transport=rpc)
    payload = bytes(range(256)) * 256
    cap = run_process(env, server.create(payload, 2))
    request = RpcRequest(opcode=OPCODES["READ"], cap=cap)
    assert run_process(env, rpc.trans(server.port, request)).body == payload

    def duplicate():
        with pytest.raises(ServerDownError):
            yield from rpc.trans(server.port, request)  # the same txid

    before = eth.stats.packets.value
    done = env.process(duplicate())
    env.run(until=env.now + 0.005)
    assert eth.stats.packets.value - before > 1  # request, then reply
    server.crash()
    packets = eth.stats.packets.value
    env.run(until=done)
    env.run(until=env.now + 1.0)
    assert eth.stats.packets.value == packets


def test_a_bullet_crash_under_a_directory_call_is_an_error_reply():
    """The directory stores its rows on Bullet through the local plane,
    so a Bullet crash lands in the directory's own worker while its
    CREATE waits for a durable replica. The directory client gets an
    error reply, and the directory serves on once Bullet is back."""
    env = Environment()
    rpc = RpcTransport(env, Ethernet(env, EthernetProfile()), CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed(),
                           transport=rpc)
    dirs.format()
    run_process(env, dirs.boot())
    names = DirectoryClient(env, rpc, default_port=dirs.port)
    bd0 = bullet.mirror.disks[0]

    def crash_soon():
        yield env.timeout(1e-6)  # bd0 has taken the inode-block write
        bullet.crash()

    def after_the_data_extent(kind):
        bd0.remove_op_hook(after_the_data_extent)
        env.process(crash_soon())

    def refused():
        with pytest.raises(ServerDownError):
            yield from names.create_directory()

    bd0.add_op_hook(after_the_data_extent)
    done = env.process(refused())
    env.run(until=AnyOf(env, [done, env.timeout(CEILING)]))
    assert done.triggered, "the directory never answered"
    assert done.ok
    run_process(env, bullet.boot())
    root = run_process(env, names.create_directory())
    assert run_process(env, names.list_names(root)) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_directory_lookup_retries_through_partition(seed):
    """The directory client shares the retry plane: a lookup issued into
    a partition window succeeds once the network heals."""
    env = Environment()
    tracer = Tracer(env)
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed(),
                           transport=rpc)
    dirs.format()
    run_process(env, dirs.boot())
    names = DirectoryClient(
        env, rpc, default_port=dirs.port, timeout=0.5, retry=RETRY,
        retry_stream=SeededStream(seed, "dir-retry"),
    )
    root = run_process(env, names.create_directory())
    file_cap = run_process(env, bullet.create(b"named bytes", 1))
    run_process(env, names.append(root, "f", file_cap))

    t0 = env.now
    ctrl = FaultController(env, FaultPlan().net_partition(at=t0 + 0.05,
                                                          duration=1.5),
                           master_seed=seed, tracer=tracer)
    ctrl.attach_ethernet("net", eth).start()

    def scenario():
        yield env.timeout(0.1)  # inside the partition
        cap = yield from names.lookup(root, "f")
        return cap

    done = env.process(scenario())
    env.run(until=AnyOf(env, [done, env.timeout(CEILING)]))
    assert done.triggered, "directory lookup hung"
    assert done.ok
    assert done.value == file_cap
    assert names.retrier.retries > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_stress_worker_pool_flaky_disk_online_compaction(seed):
    """The three-way stress cell this PR adds: a workers=4 pool serving
    concurrent clients, a flaky extent on the primary disk, and an
    online compaction pass — all at once. The lock plane must keep
    every read intact (failover absorbs the media errors), compaction
    must survive mid-move replica errors by skipping, and the
    reboot-and-checksum audit must find a consistent volume."""
    from repro.core import compact_disk

    world = World(seed, workers=4)
    env = world.env
    bullet = world.bullet
    # Fragment the volume so the pass has real moves to make.
    extra = []
    for i in range(8):
        payload = bytes([0x20 + i]) * (2048 + 256 * i)
        cap = run_process(env, bullet.create(payload, 2))
        extra.append((cap, payload))
    for cap, _payload in extra[::2]:
        run_process(env, bullet.delete(cap))
    for cap, payload in extra[1::2]:
        world.expected[cap] = payload

    t0 = env.now
    ctrl = world.controller(_plan_for(world, "disk.flaky", t0)).start()
    for cap in world.expected:
        bullet.evict(cap.object)  # every client read goes to disk

    done = []

    def client_ops(index):
        stream = SeededStream(seed * 100 + index, "stress")
        items = list(world.expected.items())
        for _step in range(6):
            cap, payload = items[stream.randint(0, len(items) - 1)]
            data = yield from world.client.read(cap)
            assert data == payload
        done.append(index)

    def compaction_mid_fault():
        yield env.timeout(0.15)  # start inside the flaky window
        report = yield from compact_disk(bullet)
        return report

    compaction = env.process(compaction_mid_fault())
    for index in range(4):
        env.process(client_ops(index))

    def scenario():
        yield compaction
        yield env.timeout(max(t0 + 4.0 - env.now, 0.0))
        return True

    assert world.run_to_completion(scenario()) is True
    assert len(done) == 4, "a client hung or died mid-stress"
    assert ctrl.firings, "the flaky window never opened"
    bullet.incarnation.disk_free.check_invariants()

    # Reboot purely from disk: a consistent volume (the scan raises on
    # any bad inode), every byte back.
    bullet.crash()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    env.run(until=env.process(reborn.boot()))
    for cap, payload in world.expected.items():
        assert run_process(env, reborn.read(cap)) == payload
    reborn.incarnation.disk_free.check_invariants()


@pytest.mark.parametrize("seed", SEEDS)
def test_cold_read_storm_over_an_extent_flaky_on_every_replica(seed):
    """A workers=4 pool serves a storm of cold READs of one file whose
    extent returns media errors on every replica, so no failover can
    save a load. Each failed load must unwind its cache reservation:
    every READ returns the file's bytes or a typed error, never the
    empty rnode a failed load left behind, and once the window closes
    the file reads back whole from disk."""
    world = World(seed, workers=4)
    env = world.env
    bullet = world.bullet
    cap, start, nblocks = _flaky_extent_of(world)
    payload = world.expected[cap]
    t0 = env.now
    plan = FaultPlan()
    for disk in bullet.mirror.disks:
        plan.disk_flaky(disk.name, at=t0 + 0.1, start_block=start,
                        nblocks=nblocks, duration=1.5)
    ctrl = world.controller(plan).start()
    bullet.evict(cap.object)
    outcomes = []

    def reader(index):
        stream = SeededStream(seed * 100 + index, "storm")
        yield env.timeout(0.1 + stream.uniform(0.0, 0.05))
        while env.now < t0 + 2.0:  # through the window and past it
            try:
                outcomes.append((yield from world.client.read(cap)))
            except ReproError as exc:
                outcomes.append(exc)
            yield env.timeout(stream.uniform(0.05, 0.3))

    readers = [env.process(reader(index)) for index in range(4)]

    def scenario():
        for proc in readers:
            yield proc
        yield env.timeout(max(t0 + 4.0 - env.now, 0.0))
        return True

    assert world.run_to_completion(scenario()) is True
    assert ctrl.firings, "the flaky window never opened"
    errors = [o for o in outcomes if isinstance(o, ReproError)]
    assert errors, "no READ went to disk inside the flaky window"
    for outcome in outcomes:
        assert isinstance(outcome, ReproError) or outcome == payload, (
            f"READ returned {len(outcome)} of {len(payload)} bytes")
    assert outcomes[-1] == payload
    assert bullet.incarnation.cache.peek(cap.object).data == payload
    bullet.incarnation.cache.check_invariants()
    world.audit_storage()


#: Disk writes after which the server dies while a 64 KB file is being
#: written; each 8 KB WRITE makes two, the data block then the inode.
#: 1: the first WRITE's data is on disk, its inode is not; 4: the second
#: WRITE is on disk, its reply not yet sent.
NFS_CRASH_POINTS = [1, 4]


@pytest.mark.parametrize("crash_after", NFS_CRASH_POINTS)
def test_nfs_server_killed_mid_write_reboots_with_every_acknowledged_file(
        crash_after):
    """The NFS baseline's crash cell: the server dies mid-WRITE, and a
    fresh server boots on the same disk, as after a power failure.
    Every file whose writes were acknowledged reads back intact, even
    after new files were allocated beside it, no data block is owned by
    two inodes, and every client call returns or raises before the
    ceiling."""
    env = Environment()
    rpc = RpcTransport(env, Ethernet(env, EthernetProfile()), CpuProfile())
    disk = VirtualDisk(env, SMALL_DISK, name="nfsdisk")
    server = NfsServer(env, disk, small_testbed(), transport=rpc)
    server.format()
    run_process(env, server.boot())
    client = NfsClient(env, small_testbed(), rpc=rpc, server_port=server.port)
    acknowledged = {}

    def call(gen):
        """One client call under the watchdog."""
        done = env.process(gen)
        env.run(until=AnyOf(env, [done, env.timeout(CEILING)]))
        assert done.triggered, "NFS client call hung past the ceiling"
        if not done.ok:
            raise done.value
        return done.value

    def write_file(path, payload):
        fd = yield from client.creat(path)
        yield from client.write(fd, payload)
        yield from client.close(fd)

    def read_file(path, size):
        fd = yield from client.open(path)
        data = yield from client.read(fd, size + 1)
        yield from client.close(fd)
        return data

    for i, size in enumerate((8 * 1024, 40 * 1024, 120 * 1024)):
        payload = bytes([0x41 + i]) * size   # the last one is indirect
        call(write_file(f"/ack{i}", payload))
        acknowledged[f"/ack{i}"] = payload

    writes = []

    def crash_hook(kind):
        if kind == "write":
            writes.append(kind)
            if len(writes) == crash_after:
                disk.remove_op_hook(crash_hook)
                server.crash()

    fd = call(client.creat("/torn"))
    disk.add_op_hook(crash_hook)
    with pytest.raises(ReproError):
        call(client.write(fd, b"T" * (64 * 1024)))
    assert len(writes) == crash_after

    reborn = NfsServer(env, disk, small_testbed(), transport=rpc)
    call(reborn.boot())
    # New files land in the acknowledged files' cylinder groups.
    for i in range(12):
        payload = bytes([0x61 + i]) * (16 * 1024)
        call(write_file(f"/new{i}", payload))
        acknowledged[f"/new{i}"] = payload
    for path, payload in acknowledged.items():
        assert call(read_file(path, len(payload))) == payload, path
    owners = {}
    for inum, fbn in reborn.incarnation.fs.owned_blocks():
        assert owners.setdefault(fbn, inum) == inum, (
            f"block {fbn} owned by inodes {owners[fbn]} and {inum}")


# ------------------------------------- crash mid-transmission, both media
#
# A server crash interrupts its workers wherever they are, and one of
# them may be putting a reply on the wire. The fast kernel's medium
# ledger has to let go of the medium exactly as the per-fragment
# reference path's try/finally does (the modelcheck regression for the
# medium leak replays on the hooked kernel only, i.e. the reference
# path): these cells run the same crash on both and compare everything
# a survivor can see.


def _crash_mid_reply(env, crash_offset):
    """A client reads an 8 KB file (a six-fragment reply) while three
    other senders move 32 KB each; all four start transmitting at the
    same instant, the reply first. The server crashes ``crash_offset``
    seconds later."""
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    cap = run_process(env, bullet.create(b"r" * 8192, 2))
    client = BulletClient(env, rpc, bullet.port)
    replying = env.event()
    sends = []
    real_send = eth.send_fragments

    def spy(nbytes, indices=None):
        sends.append(env.now)
        if len(sends) == 2:  # 1 = the request, 2 = the reply
            replying.succeed()
        return real_send(nbytes, indices)

    eth.send_fragments = spy
    seen = {"finished": [], "samples": []}

    def reader():
        try:
            yield from client.read(cap)
        except ServerDownError:
            seen["client"] = ("down", env.now)
        else:
            seen["client"] = ("answered", env.now)

    def sender(wid):
        yield replying
        lost = yield from real_send(32 * 1024)
        seen["finished"].append((env.now, wid, lost))

    def crasher():
        yield replying
        yield env.timeout(crash_offset)
        queued = eth.medium_queue_length
        bullet.crash()
        yield env.timeout(0.0)  # the workers' interrupts land first
        seen["crash"] = (env.now, queued, eth.medium_queue_length)

    def sampler():
        yield replying
        for _ in range(60):
            yield env.timeout(1e-3)
            seen["samples"].append(
                (env.now, eth.medium_queue_length, eth.idle))

    env.process(reader())
    for wid in range(3):
        env.process(sender(wid))
    env.process(crasher())
    env.process(sampler())
    env.run()
    seen["end"] = (eth.idle, eth.medium_queue_length, eth.stats.snapshot())
    return seen


_OVERHEAD = EthernetProfile().per_packet_overhead
_WIRE = EthernetProfile().wire_time(EthernetProfile().max_payload)

#: Seconds after the four senders start. All four packets are ready one
#: overhead later and the reply's goes first, so for one wire time the
#: reply holds the medium with the three others queued; then it preps
#: its second packet while sender 0 transmits, and queues behind 1 and 2.
CRASH_PHASES = {
    "reply holds the medium, three queued": _OVERHEAD + _WIRE / 2,
    "reply queued behind two": 2 * _OVERHEAD + _WIRE
                               + (_WIRE - _OVERHEAD) / 2,
    "reply preparing a packet": _OVERHEAD + _WIRE + _OVERHEAD / 2,
}


@pytest.mark.parametrize("phase", sorted(CRASH_PHASES))
def test_crash_mid_transmission_on_the_medium_ledger(phase):
    ledger = _crash_mid_reply(Environment(), CRASH_PHASES[phase])
    reference = _crash_mid_reply(reference_env(), CRASH_PHASES[phase])
    # Every survivor completes at the instant the reference gives, the
    # queue reads what the reference reads at every sample.
    assert ledger == reference
    crashed_at, queued_before, queued_after = ledger["crash"]
    assert ledger["client"] == ("down", crashed_at)
    assert sorted(wid for _t, wid, _lost in ledger["finished"]) == [0, 1, 2]
    if phase == "reply preparing a packet":
        assert (queued_before, queued_after) == (2, 2)
    else:
        # Holding: the next in line is granted at the crash instant.
        # Queued: the reply withdraws. Either way one waiter fewer.
        assert (queued_before, queued_after) == (3, 2)
    idle, queue_length, _stats = ledger["end"]
    assert idle and queue_length == 0
