"""The four closed-loop workloads.

Every workload is three steps with a hard line between them:

* ``plan(seed, scale)`` — pure Python, no program code: the seeded op
  lists and file contents. The same seed gives the same plan; the
  program only ever sees the generated inputs.
* ``setup(plan, traced)`` — builds the rig and pre-populates it. Its
  host time is the pass's share of ``setup_s``.
* ``clients(world, plan, rec, log)`` — the client processes. Closed loop, as
  in §4: every Amoeba/NFS caller blocks on its reply, so each process
  issues its next op when the previous one returns. Op *counts* are
  fixed, not durations, so two commits do the same work.

Every READ is byte-compared against what was written; a raised
``ReproError`` or a wrong byte makes the op a failed op.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from dataclasses import dataclass, field

from . import api
from .rig import Rig, build_rig

READ, SIZE, CREATE, DELETE = "read", "size", "create", "delete"
KINDS = (READ, SIZE, CREATE, DELETE)


# ------------------------------------------------------------ plan helpers


class Zipf:
    """Zipf(1) popularity over ``n`` ranks (rank 0 hottest)."""

    def __init__(self, n: int):
        total = sum(1.0 / (i + 1) for i in range(n))
        acc = 0.0
        self._cdf = []
        for i in range(n):
            acc += 1.0 / (i + 1) / total
            self._cdf.append(acc)
        self._last = n - 1

    def draw(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self._cdf, rng.random()), self._last)


def s13_sizes(n: int, cap: int) -> list:
    """``n`` file sizes following the S13 size law (log-normal, median
    1 KB, 99 % < 64 KB; the measurements the paper cites), capped at
    ``cap`` bytes, ascending. They are the law's evenly spaced quantiles,
    not random draws, so the population is the same for every seed and
    only the op streams vary."""
    law = statistics.NormalDist(math.log(api.KB), math.log(64) / 2.326)
    return [min(max(int(math.exp(law.inv_cdf((k + 0.5) / n))), 1), cap)
            for k in range(n)]


def shuffled(rng: random.Random, items: list) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


class Contents:
    """Deterministic file contents: an 8-byte tag, then a slice of one
    seeded filler block. ``of(tag, size)`` rebuilds any file's bytes, so
    a READ is checked without keeping a copy of everything written."""

    def __init__(self, seed: int):
        self._filler = random.Random(f"{seed}:filler").randbytes(
            api.MB + 4096)

    def of(self, tag: int, size: int) -> bytes:
        offset = (tag * 7919) % 4096
        head = tag.to_bytes(8, "big")
        if size <= 8:
            return head[8 - size:]
        return head + self._filler[offset:offset + size - 8]


# --------------------------------------------------------------- recording


class Recorder:
    """Client-observed results of one pass, one entry per op."""

    def __init__(self, metrics: api.MetricsRegistry, checkpoint_every: int):
        self.kinds: list = []
        self.sim_s: list = []
        self.payload_bytes = 0
        self.failed = 0
        #: Counted by the coherence readers themselves.
        self.stale_reads_served = 0
        #: The registry's gauges, read after every ``checkpoint_every``-th
        #: op: at the same ops in every pass.
        self.gauge_samples: list = []
        self._metrics = metrics
        self._checkpoint_every = checkpoint_every

    def op(self, kind: str, sim_s: float, nbytes: int, ok: bool) -> None:
        self.kinds.append(kind)
        self.sim_s.append(sim_s)
        self.payload_bytes += nbytes
        if not ok:
            self.failed += 1
        if not len(self.kinds) % self._checkpoint_every:
            self.gauge_samples.append(self._metrics.snapshot()["gauges"])


class NoSpans:
    """The span log of an untraced pass: records nothing."""

    @staticmethod
    def begin(kind: str, client: int, seq: int) -> int:
        return 0

    @staticmethod
    def end(span_id: int, kind: str) -> None:
        return None


@dataclass
class World:
    """A set-up rig plus whatever pre-population the clients need."""

    rig: Rig
    shared: list = field(default_factory=list)   # Bullet: resident files
    sessions: list = field(default_factory=list)  # coherence: readers
    writer: object = None
    owners: dict = field(default_factory=dict)


# ----------------------------------------------------------- Bullet churn


@dataclass
class BulletPlan:
    seed: int
    contents: Contents
    shared_sizes: list
    client_ops: list          # per client: [(kind, own, key, size), ...]
    p_factor: int
    timed_ops: int


def _bullet_plan(seed: int, name: str, n_clients: int, blocks: int,
                 block: tuple, shared_sizes: list, create_sizes: list,
                 p_factor: int) -> BulletPlan:
    """Seeded op lists for a READ/SIZE/CREATE/DELETE mix.

    The mix is exact, not sampled: each client's list is ``blocks``
    seeded shuffles of ``block`` (one block = the mix in lowest terms),
    and its CREATE sizes are a seeded shuffle of ``create_sizes``. So
    every seed does the same amount of every kind of work and only the
    order and the popularity draws differ.

    READ and SIZE draw Zipf over the resident files (never deleted, so
    they cannot fail); one READ in eight instead targets the client's own
    newest file, which checks what CREATE stored. DELETE removes one of
    the client's *own* files, so no client can pull a file from under
    another; a DELETE drawn with nothing to delete trades places with the
    block's CREATE.
    """
    zipf = Zipf(len(shared_sizes))
    client_ops = []
    for index in range(n_clients):
        rng = random.Random(f"{seed}:{name}:client{index}")
        kinds = [kind for _ in range(blocks) for kind in shuffled(rng, block)]
        new_sizes = iter(shuffled(rng, create_sizes))
        live: list = []
        sizes: dict = {}
        ops = []
        for at, kind in enumerate(kinds):
            if kind == DELETE and not live:
                swap = kinds.index(CREATE, at)
                kinds[swap], kind = DELETE, CREATE
            if kind == READ and live and rng.random() < 0.125:
                ops.append((READ, True, live[-1], sizes[live[-1]]))
            elif kind in (READ, SIZE):
                rank = zipf.draw(rng)
                ops.append((kind, False, rank, shared_sizes[rank]))
            elif kind == CREATE:
                slot = len(sizes)
                sizes[slot] = next(new_sizes)
                live.append(slot)
                ops.append((CREATE, True, slot, sizes[slot]))
            else:
                victim = live.pop(rng.randrange(len(live)))
                ops.append((DELETE, True, victim, sizes[victim]))
        client_ops.append(ops)
    return BulletPlan(seed=seed, contents=Contents(seed),
                      shared_sizes=shared_sizes, client_ops=client_ops,
                      p_factor=p_factor,
                      timed_ops=n_clients * blocks * len(block))


def _bullet_client(world: World, plan: BulletPlan, index: int,
                   rec: Recorder, log):
    """One Bullet client process: runs its op list in a closed loop."""
    env = world.rig.env
    client = world.rig.bullet_client
    shared = world.shared
    contents = plan.contents.of
    own: dict = {}
    base = (index + 1) << 32
    for seq, (kind, is_own, key, size) in enumerate(plan.client_ops[index]):
        span = log.begin(kind, index, seq)
        started = env.now
        ok = True
        moved = 0
        try:
            if kind == READ:
                if is_own:
                    cap, tag = own[key], base | key
                else:
                    cap, tag = shared[key], key
                data = yield from client.read(cap)
                moved = len(data)
                ok = data == contents(tag, size)
            elif kind == SIZE:
                ok = (yield from client.size(shared[key])) == size
            elif kind == CREATE:
                own[key] = yield from client.create(
                    contents(base | key, size), plan.p_factor)
                moved = size
            else:
                yield from client.delete(own.pop(key))
        except api.ReproError:
            ok = False
        log.end(span, kind)
        rec.op(kind, env.now - started, moved, ok)


class _BulletWorkload:
    """Shared shape of the two Bullet-server workloads."""

    name = ""
    why = ""
    client_layer = "client.bullet"
    n_clients = 0
    background_load = False

    def setup(self, plan: BulletPlan, traced: bool) -> World:
        rig = build_rig(plan.seed, background_load=self.background_load,
                        bullet_workers=4, traced=traced)
        world = World(rig=rig)
        for rank, size in enumerate(plan.shared_sizes):
            world.shared.append(api.run_process(
                rig.env, rig.bullet_client.create(
                    plan.contents.of(rank, size), plan.p_factor)))
        return world

    def clients(self, world: World, plan: BulletPlan, rec: Recorder,
                log) -> list:
        return [_bullet_client(world, plan, index, rec, log)
                for index in range(self.n_clients)]


class SmallFileRpc(_BulletWorkload):
    name = "small_file_rpc"
    why = ("per-op cost with almost no bytes: sim, net.rpc, core.server "
           "dispatch, capability, locks and obs do the work; the data path "
           "and disks idle, so a data-path change predicts no change here")
    n_clients = 8
    background_load = False   # idle Ethernet: nothing but the RPCs
    BLOCKS = 500              # x 10 ops x 8 clients = 40 000 ops/pass
    #: 70 % READ / 10 % SIZE / 10 % CREATE / 10 % DELETE-own.
    BLOCK = (READ,) * 7 + (SIZE, CREATE, DELETE)

    def plan(self, seed: int, scale: float) -> BulletPlan:
        blocks = max(int(self.BLOCKS * scale), 2)
        cap = 8 * api.KB      # fits every cache in the system
        sizes = s13_sizes(64, cap)
        return _bullet_plan(
            seed, self.name, self.n_clients, blocks, self.BLOCK,
            # Popularity rank r holds quantile 27r mod 64: a fixed scatter,
            # so hot files are neither all small nor all large.
            shared_sizes=[sizes[(27 * r) % 64] for r in range(64)],
            create_sizes=s13_sizes(blocks, cap), p_factor=1)


class LargeFileChurn(_BulletWorkload):
    name = "large_file_churn"
    why = ("the paper's thesis workload: 20 MB resident > 14 MB cache, whole "
           "files of 256 KB-1 MB created beside reads; net.ethernet "
           "fragments, copies, core.cache evictions, freelist and disks work")
    n_clients = 4
    background_load = True    # normally loaded Ethernet, as in §4
    BLOCKS = 75               # x 5 ops x 4 clients = 1 500 ops/pass
    #: 60 % READ / 20 % CREATE / 20 % DELETE-own.
    BLOCK = (READ,) * 3 + (CREATE, DELETE)

    def plan(self, seed: int, scale: float) -> BulletPlan:
        blocks = max(int(self.BLOCKS * scale), 2)
        return _bullet_plan(
            seed, self.name, self.n_clients, blocks, self.BLOCK,
            # 40 x 512 KB = 20 MB resident, against a 14 MB RAM cache.
            shared_sizes=[512 * api.KB] * 40,
            # 256 KB-1 MB, evenly spaced.
            create_sizes=[(256 + 768 * k // (blocks - 1)) * api.KB
                          for k in range(blocks)],
            p_factor=2)


# --------------------------------------------------------------------- NFS


@dataclass
class NfsPlan:
    seed: int
    contents: Contents
    ops: list                 # [(kind, file index, size), ...]
    timed_ops: int


class NfsBlockIo:
    name = "nfs_block_io"
    client_layer = "nfs.client"
    why = ("the baseline the paper's 3-6x is measured against and the control "
           "for Bullet-only changes: nfs.*, per-block net.rpc and disk seeks "
           "work; core, client and capability do none")
    FILES = 250
    #: 8 KB-1 MB, weighted toward 64 KB, with 1 MB present (C4).
    SIZES = ((8, 3), (16, 3), (64, 8), (256, 2), (1024, 1))
    #: The second read of a file comes this many files later, after
    #: other traffic has been through the 3 MB buffer cache.
    LAG = 6

    def plan(self, seed: int, scale: float) -> NfsPlan:
        rng = random.Random(f"{seed}:{self.name}")
        n_files = max(int(self.FILES * scale), self.LAG + 2)
        # The size mix is exact (weights in proportion, the 1 MB file
        # always present); the seed decides the order.
        total = sum(weight for _kb, weight in self.SIZES)
        sizes = [kb * api.KB for kb, weight in reversed(self.SIZES)
                 for _ in range(max(round(n_files * weight / total), 1))]
        sizes = shuffled(rng, (sizes + [64 * api.KB] * n_files)[:n_files])
        ops = []
        for j in range(n_files + self.LAG):
            if j < n_files:
                ops.append((CREATE, j, sizes[j]))
                ops.append((READ, j, sizes[j]))
            if j >= self.LAG:
                old = j - self.LAG
                ops.append((READ, old, sizes[old]))
                ops.append((DELETE, old, sizes[old]))
        return NfsPlan(seed=seed, contents=Contents(seed), ops=ops,
                       timed_ops=len(ops))

    def setup(self, plan: NfsPlan, traced: bool) -> World:
        return World(rig=build_rig(plan.seed, background_load=True, nfs=True,
                                   traced=traced))

    def clients(self, world: World, plan: NfsPlan, rec: Recorder,
                log) -> list:
        return [self._client(world, plan, rec, log)]

    @staticmethod
    def _client(world: World, plan: NfsPlan, rec: Recorder, log):
        """The one NFS client. As in §4: create = creat+write+close,
        read = open+lseek+read+close, delete = unlink."""
        env = world.rig.env
        nfs = world.rig.nfs_client
        contents = plan.contents.of
        for seq, (kind, j, size) in enumerate(plan.ops):
            span = log.begin(kind, 0, seq)
            started = env.now
            path = f"/f{j}"
            ok = True
            moved = 0
            try:
                if kind == CREATE:
                    fd = yield from nfs.creat(path)
                    moved = yield from nfs.write(fd, contents(j, size))
                    yield from nfs.close(fd)
                    ok = moved == size
                elif kind == READ:
                    fd = yield from nfs.open(path)
                    yield from nfs.lseek(fd, 0)
                    data = yield from nfs.read(fd, size)
                    yield from nfs.close(fd)
                    moved = len(data)
                    ok = data == contents(j, size)
                else:
                    yield from nfs.unlink(path)
            except api.ReproError:
                ok = False
            log.end(span, kind)
            rec.op(kind, env.now - started, moved, ok)


# --------------------------------------------------------------- coherence


@dataclass
class CoherencePlan:
    seed: int
    contents: Contents
    names: list
    reader_ops: list          # per workstation: [name index, ...]
    writer_ops: list          # [name index, ...], one per publish
    timed_ops: int


class WorkstationCoherence:
    name = "workstation_coherence"
    client_layer = "client.bullet"
    why = ("the §5 client planes: client.workstation, client.named, "
           "directory and local capability.verify do most of the work and "
           "the file server little; cache = half the hot set: hits and misses")
    WORKSTATIONS = 8
    OPS_PER_WORKSTATION = 3750
    HOT_FILES = 24
    FILE_SIZE = 8 * api.KB
    CACHE_BYTES = 96 * api.KB   # half of 24 x 8 KB
    PUBLISHES = 250

    def plan(self, seed: int, scale: float) -> CoherencePlan:
        zipf = Zipf(self.HOT_FILES)
        per_ws = max(int(self.OPS_PER_WORKSTATION * scale), 8)
        reader_ops = []
        for w in range(self.WORKSTATIONS):
            rng = random.Random(f"{seed}:{self.name}:ws{w}")
            reader_ops.append([zipf.draw(rng) for _ in range(per_ws)])
        rng = random.Random(f"{seed}:{self.name}:writer")
        publishes = max(int(self.PUBLISHES * scale), 2)
        writer_ops = [zipf.draw(rng) for _ in range(publishes)]
        return CoherencePlan(
            seed=seed, contents=Contents(seed),
            names=[f"hot-f{i:03d}" for i in range(self.HOT_FILES)],
            reader_ops=reader_ops, writer_ops=writer_ops,
            # Each publish is a create op plus a delete-old op.
            timed_ops=self.WORKSTATIONS * per_ws + 2 * publishes)

    def _encode(self, plan: CoherencePlan, i: int, version: int) -> bytes:
        """Self-describing contents: a version header a reader decodes to
        tell which version it was served, then seeded filler."""
        header = f"{plan.names[i]}:v{version}:".encode()
        return header + plan.contents.of(
            (i << 20) | version, self.FILE_SIZE - len(header))

    @staticmethod
    def _version_of(data: bytes) -> int:
        """The version a reader was served; -1 when the header is gone."""
        try:
            return int(data.split(b":v", 1)[1].split(b":", 1)[0])
        except (IndexError, ValueError):
            return -1

    @staticmethod
    def _mask(i: int):
        # Even files are published under owner capabilities, odd ones
        # read-only, so both local-verification paths run.
        return None if i % 2 == 0 else api.RIGHT_READ

    def setup(self, plan: CoherencePlan, traced: bool) -> World:
        rig = build_rig(plan.seed, background_load=False, bullet_workers=4,
                        directory=True, traced=traced)
        env = rig.env
        root = api.run_process(env, rig.directory_client.create_directory())
        world = World(rig=rig)
        world.writer = rig.workstation("writer", 4 * self.FILE_SIZE, root,
                                       api.CurrencyPolicy.session())
        for i, name in enumerate(plan.names):
            owner, _old = api.run_process(env, world.writer.publish(
                name, self._encode(plan, i, 0), 1, mask=self._mask(i)))
            world.owners[i] = owner
        world.sessions = [
            rig.workstation(f"ws{w}", self.CACHE_BYTES, root,
                            api.CurrencyPolicy.always())
            for w in range(self.WORKSTATIONS)]
        return world

    def clients(self, world: World, plan: CoherencePlan, rec: Recorder,
                log) -> list:
        env = world.rig.env
        truth = [0] * self.HOT_FILES
        reads_total = sum(len(ops) for ops in plan.reader_ops)
        publishes = len(plan.writer_ops)
        # The writer is paced by reader progress, not by simulated time:
        # publish k is released when the readers have completed k+1 of
        # publishes+1 equal shares, so the version flips stay spread
        # over the whole pass however fast the program gets.
        gates = [env.event() for _ in range(publishes)]
        progress = [0, 0]       # reads done, gates opened

        def reader(w: int):
            session = world.sessions[w]
            for seq, i in enumerate(plan.reader_ops[w]):
                span = log.begin(READ, w, seq)
                started = env.now
                at_open = truth[i]
                ok = True
                moved = 0
                try:
                    data = yield from session.read(plan.names[i])
                    moved = len(data)
                    version = self._version_of(data)
                    if version < at_open:
                        # Older than the binding current before the open
                        # began: the §5 violation under check-always.
                        rec.stale_reads_served += 1
                        ok = False
                    elif data != self._encode(plan, i, version):
                        ok = False
                except api.ReproError:
                    ok = False
                log.end(span, READ)
                rec.op(READ, env.now - started, moved, ok)
                progress[0] += 1
                while (progress[1] < publishes
                       and progress[0] * (publishes + 1)
                       >= (progress[1] + 1) * reads_total):
                    gates[progress[1]].succeed()
                    progress[1] += 1

        def writer():
            session = world.writer
            bullet = world.rig.bullet_client
            index = self.WORKSTATIONS
            for seq, i in enumerate(plan.writer_ops):
                yield gates[seq]
                version = truth[i] + 1
                data = self._encode(plan, i, version)
                span = log.begin(CREATE, index, 2 * seq)
                started = env.now
                ok = True
                try:
                    owner, _old = yield from session.publish(
                        plan.names[i], data, 1, mask=self._mask(i))
                    truth[i] = version
                except api.ReproError:
                    ok = False
                log.end(span, CREATE)
                rec.op(CREATE, env.now - started, len(data), ok)
                if not ok:
                    continue
                # Dispose of the superseded version; readers mid-fetch
                # recover through their own currency re-check.
                doomed, world.owners[i] = world.owners[i], owner
                span = log.begin(DELETE, index, 2 * seq + 1)
                started = env.now
                try:
                    yield from bullet.delete(doomed)
                except api.ReproError:
                    ok = False
                log.end(span, DELETE)
                rec.op(DELETE, env.now - started, 0, ok)

        return [reader(w) for w in range(self.WORKSTATIONS)] + [writer()]


WORKLOADS = {w.name: w for w in (SmallFileRpc(), LargeFileChurn(),
                                 NfsBlockIo(), WorkstationCoherence())}
