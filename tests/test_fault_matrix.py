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
from repro.core import BulletServer
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import ReproError, ServerDownError
from repro.faults import FaultController, FaultPlan
from repro.net import Ethernet, RpcTransport
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
        self.tracer = Tracer(self.env, categories={"fault", "retry"})
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
    inode = world.bullet.table.get(cap.object)
    nblocks = world.bullet.layout.blocks_for(inode.size)
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
    live_before = world.bullet.table.live_count

    def scenario():
        yield env.timeout(0.1)
        payload = b"exactly-once " * 100
        cap = yield from world.client.create(payload, 1)
        world.expected[cap] = payload
        yield env.timeout(max(t0 + 4.0 - env.now, 0.0))
        return True

    assert world.run_to_completion(scenario()) is True
    assert world.bullet.table.live_count == live_before + 1
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
    reborn.disk_free.check_invariants()


@pytest.mark.parametrize("seed", SEEDS)
def test_directory_lookup_retries_through_partition(seed):
    """The directory client shares the retry plane: a lookup issued into
    a partition window succeeds once the network heals."""
    env = Environment()
    tracer = Tracer(env, categories={"fault", "retry"})
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed(),
                           transport=rpc, max_directories=8)
    dirs.format()
    run_process(env, dirs.boot())
    names = DirectoryClient(
        env, rpc, default_port=dirs.port, timeout=0.5, retry=RETRY,
        retry_stream=SeededStream(seed, "dir-retry"), tracer=tracer,
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
    reboot-and-checksum audit must find zero quarantined inodes."""
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
    bullet.disk_free.check_invariants()

    # Reboot purely from disk: zero quarantined inodes, every byte back.
    bullet.crash()
    reborn = BulletServer(env, bullet.mirror, bullet.testbed, name="bullet")
    report = env.run(until=env.process(reborn.boot()))
    assert report.quarantined == []
    for cap, payload in world.expected.items():
        assert run_process(env, reborn.read(cap)) == payload
    reborn.disk_free.check_invariants()


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
