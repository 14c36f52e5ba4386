"""The Bullet file server (the paper's contribution, §2–§3).

Files are immutable, stored contiguously on disk and in the RAM cache,
and transferred whole. The interface is the paper's four functions —
CREATE, SIZE, READ, DELETE — plus the §5 extension MODIFY (derive a new
file from an existing one server-side) and the administrative
operations (STAT, RESTRICT, COMPACT, FSCK).

The server exposes two equivalent planes:

* **Local plane** — ``yield env.process(server.create(data, p))`` etc.:
  the full server logic with disk, cache, and CPU timing but no network.
  Tests and in-process composition (the directory server embedding a
  Bullet volume) use this.
* **RPC plane** — the shared service loop
  (:class:`repro.net.RpcService`) on the server's port; clients use
  :class:`repro.client.BulletClient`. This is what the paper's
  measurements exercise. With the default ``workers=1`` it is the
  paper's single-threaded loop ("one request is handled at a time");
  with ``workers=N`` the endpoint's inbox becomes an admission queue
  feeding a pool of N worker processes — requests pipeline across the
  disk, memcpy and network phases — and the per-file lock plane
  (:mod:`repro.core.locks`) restores the invariants single-threading
  used to provide for free (DESIGN.md §9).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..capability import (
    Capability,
    RIGHT_DELETE,
    RIGHT_MODIFY,
    RIGHT_READ,
    mint_owner,
    require,
    server_restrict,
)
from ..disk import MirroredDiskSet
from ..errors import (
    BadRequestError,
    FileTooBigError,
    NotFoundError,
    ReproError,
)
from ..net import (RpcReply, RpcRequest, RpcService, RpcTransport,
                   ServiceEndpoint)
from ..obs import MetricsRegistry, RegistryStats
from ..profiles import Testbed
from ..sim import Environment, Interrupt, Tracer
from .cache import BulletCache
from .freelist import ExtentFreeList, bind_gauges
from .inode import InodeTable
from .layout import VolumeLayout, format_volume, render_layout
from .locks import FileLockTable
from .lockset import GuardedMap
from .recovery import scan_volume

__all__ = ["BulletServer", "ServerStats", "VerifiedCapCache", "OPCODES"]


#: RPC opcodes of the Bullet protocol.
OPCODES = {
    "CREATE": 1,
    "READ": 2,
    "SIZE": 3,
    "DELETE": 4,
    "MODIFY": 5,
    "STAT": 6,
    "RESTRICT": 7,
}


class ServerStats(RegistryStats):
    """Counters the server maintains for std_status-style reporting:
    registry counters (``repro_server_<field>_total{server=...}``), so
    ``std_status``, the exporters and the bench emitter report one and
    the same values."""

    _PREFIX = "repro_server"
    _COUNTER_FIELDS = (
        "creates",
        "reads",
        "sizes",
        "deletes",
        "modifies",
        "restricts",
        "errors",
        "bytes_created",
        "bytes_read",
        "bytes_modified",
        "cap_checks",
        "cap_check_cache_hits",
    )


class VerifiedCapCache:
    """The bounded verified-capability cache.

    "Capabilities can be cached to avoid decryption for each access" —
    but the cache models a slice of finite server RAM, so it is capped
    with LRU eviction, and it is indexed by object number so DELETE
    invalidates one object's entries without rebuilding the whole set.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise BadRequestError("cap cache needs at least one entry")
        self.capacity = capacity
        self._order: OrderedDict[tuple[int, int, int], None] = OrderedDict()
        self._by_object: dict[int, set[tuple[int, int, int]]] = {}

    def __len__(self) -> int:
        return len(self._order)

    def hit(self, key: tuple[int, int, int]) -> bool:
        """Membership probe; refreshes the entry's recency on a hit."""
        if key not in self._order:
            return False
        self._order.move_to_end(key)
        return True

    def add(self, key: tuple[int, int, int]) -> None:
        if key in self._order:
            self._order.move_to_end(key)
            return
        self._order[key] = None
        self._by_object.setdefault(key[0], set()).add(key)
        while len(self._order) > self.capacity:
            victim, _ = self._order.popitem(last=False)
            remaining = self._by_object[victim[0]]
            remaining.discard(victim)
            if not remaining:
                del self._by_object[victim[0]]

    def forget_object(self, number: int) -> None:
        """Invalidate every cached capability of one object (the DELETE
        path) — O(entries for that object), not O(cache size)."""
        for key in sorted(self._by_object.pop(number, ())):
            del self._order[key]


class BulletIncarnation(ServiceEndpoint):
    """One life of a Bullet server: the endpoint and its RAM tables."""

    table: InodeTable
    layout: VolumeLayout
    disk_free: ExtentFreeList
    cache: BulletCache
    verified_caps: VerifiedCapCache
    lives: GuardedMap  # the aging clocks, under the inode locks
    locks: FileLockTable

    def on_evict(self, inode_number: int) -> None:
        """Cache eviction callback: clear the inode's index field."""
        self.table.get(inode_number).index = 0


class BulletServer(RpcService[BulletIncarnation]):
    """One Bullet file server instance over a mirrored disk set."""

    OPNAMES = {number: name for name, number in OPCODES.items()}

    def __init__(
        self,
        env: Environment,
        mirror: MirroredDiskSet,
        testbed: Testbed,
        name: str = "bullet",
        transport: Optional[RpcTransport] = None,
        master_seed: int = 0,
        alloc_strategy: str = "first_fit",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        workers: int = 1,
    ):
        super().__init__(env, name, transport, tracer, metrics, workers)
        self.mirror = mirror
        self.testbed = testbed
        self.stats = ServerStats(self.metrics, server=name)
        self.master_seed = master_seed
        self._alloc_strategy = alloc_strategy
        self._inflight_count = 0
        self.metrics.gauge("repro_server_inflight", self,
                           lambda server: server._inflight_count,
                           server=name)
        self.metrics.gauge("repro_server_workers", self,
                           lambda server: server.workers, server=name)
        self._bg_write_failures = self.metrics.counter(
            "repro_background_write_failures_total", server=name)

    # ------------------------------------------------------------- setup

    def format(self) -> None:
        """mkfs every replica (untimed; done before the server's life)."""
        for disk in self.mirror.disks:
            format_volume(disk, self.testbed.bullet.inode_count)

    def boot(self):
        """Process: read the inode table from the primary disk, build the
        free lists, run the consistency checks, and start serving.

        "When the file server starts up, it reads the complete inode
        table into the RAM inode table and keeps it there permanently."
        """
        primary, profile = self.mirror.primary, self.testbed.bullet
        layout = VolumeLayout.for_disk(primary, profile.inode_count)
        raw = yield primary.read(0, layout.inode_table_blocks)
        incarnation = BulletIncarnation(self.env, self.port, self.transport)
        incarnation.layout = layout
        incarnation.table = table = InodeTable.decode(raw, primary.block_size)
        incarnation.disk_free, report = scan_volume(
            table, layout, strategy=self._alloc_strategy
        )
        incarnation.cache = BulletCache(
            profile.ram_bytes - profile.reserved_ram_bytes,
            rnode_count=profile.rnode_count,
            on_evict=incarnation.on_evict,
            metrics=self.metrics,
            owner=self.name,
        )
        incarnation.verified_caps = VerifiedCapCache(profile.cap_cache_entries)
        # This incarnation's gauges: each reads the incarnation that
        # booted last (DESIGN.md §5c).
        bind_gauges(self.metrics, f"{self.name}:disk", incarnation,
                    lambda inc: inc.disk_free)
        self.metrics.gauge("repro_server_queue_depth", incarnation,
                           lambda inc: len(inc.inbox), server=self.name)
        # Every surviving file starts its aging clock afresh; orphans
        # left by pre-crash clients die after max_lives sweeps.
        incarnation.lives = GuardedMap(f"{self.name}.lives", self.env, {
            number: profile.max_lives
            for number, _inode in table.live_inodes()
        })
        incarnation.locks = FileLockTable(self.env, metrics=self.metrics,
                                          owner=self.name)
        self._start_serving(incarnation)
        self._trace("bullet", f"{self.name} booted", files=report.live_files)
        return report

    # --------------------------------------------------------- local API

    def create(self, data: bytes, p_factor: Optional[int] = None):
        """Process: BULLET.CREATE — store an immutable file, reply per the
        paranoia factor. Returns the owner :class:`Capability`."""
        return (yield from self._create(self._require_booted(), data,
                                        p_factor))

    def _create(self, incarnation: BulletIncarnation, data: bytes,
                p_factor: Optional[int]):
        cpu = self.testbed.cpu
        yield self.env.timeout(cpu.request_dispatch)
        if p_factor is None:
            p_factor = self.testbed.bullet.default_p_factor
        self.mirror.check_p_factor(p_factor)
        size = len(data)
        cache, table = incarnation.cache, incarnation.table
        if size > cache.capacity:
            raise FileTooBigError(
                f"{size}-byte file exceeds the server's {cache.capacity}-byte memory"
            )
        blocks = incarnation.layout.blocks_for(size)
        incarnation.require_up()  # shared counters: DESIGN.md §5c
        disk_free = incarnation.disk_free
        start_block = disk_free.allocate(blocks) if blocks else 0
        secret = incarnation.mint_secret()
        number = 0  # no inode is number 0
        try:
            number = table.allocate(secret, start_block, size)
            # Copy the file into the contiguous RAM cache.
            rnode = cache.insert(number, data)
        except ReproError:
            if number:
                table.release(number)
            if blocks:
                disk_free.free(start_block, blocks)
            raise
        table.get(number).index = rnode.number
        # Hold the new file's write lock until *every* replica write has
        # settled: no reader can chase the extent to disk, no compaction
        # can move it, and no delete can free it while background
        # replica writes are still in flight (at p_factor=0 the client
        # holds a capability long before the data is durable anywhere).
        with incarnation.locks.writing(number) as lock:
            yield lock.grant
            yield self.env.timeout(size * cpu.memcpy_per_byte)
            # Write-through: data extent then inode block, per replica.
            inode_block = table.block_of_inode(number)
            extents = [(start_block, data)] if blocks else []
            extents.append((inode_block, table.encode_block(inode_block)))
            durable, writes = incarnation.write_ordered(
                self.mirror, extents, p_factor)
            # Start the aging clock while this handler still owns the
            # write grant: a TOUCH or AGE sweep can only see the entry
            # after taking the lock.
            incarnation.lives[number] = self.testbed.bullet.max_lives
            # Fork the settle watcher: it owns the write grant from here
            # and accounts any background replica failure.
            settle = incarnation.spawn(
                self._settle_create(incarnation, number, lock.grant, writes))
            lock.detach(settle)
            if p_factor > 0:
                yield durable
        self.stats.creates.inc()
        self.stats.bytes_created.inc(size)
        if self._tracer is not None:
            self._trace("bullet", "create", inode=number, size=size,
                        p=p_factor)
        return mint_owner(self.port, number, secret)

    def _settle_create(self, incarnation: BulletIncarnation, number: int,
                       grant, writes):
        """Process: watch a CREATE's replica writes to completion, then
        drop the file's write lock. Failures beyond the quorum (all of
        them, at p_factor=0) are counted, traced, and surfaced in
        :meth:`status` instead of being silently defused. A crash stops
        the replica writes: each disk finishes what it holds, no more."""
        with incarnation.locks.adopt(grant):
            for write in writes:
                try:
                    # Intentional blocking section: no reader may chase
                    # the extent to disk before it is durable.
                    yield write
                except ReproError as exc:
                    self._bg_write_failures.inc()
                    self._trace("bullet", "background replica write failed",
                                inode=number, status=exc.status.name)
                except Interrupt:
                    for replica in writes:
                        if replica.is_alive:
                            replica.interrupt("server crash")
                    return

    def read(self, cap: Capability):
        """Process: BULLET.READ — returns the whole file contents."""
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with incarnation.locks.reading(cap.object) as lock:
            yield lock.grant
            number, inode = yield from self._check(incarnation, cap,
                                                   RIGHT_READ)
            rnode, inode = yield from self._resident(
                incarnation, lock, cap, RIGHT_READ, number, inode)
            tracer = self._tracer
            # Copy from the contiguous cache into the network buffers;
            # pinned so no concurrent miss can evict it mid-copy.
            if tracer is not None:
                cache_span = tracer.begin_span(
                    "span", "server.cache", inode=number, size=inode.size)
            incarnation.cache.pin(rnode)
            try:
                yield self.env.timeout(
                    inode.size * self.testbed.cpu.memcpy_per_byte)
            finally:
                incarnation.cache.unpin(rnode)
            if tracer is not None:
                tracer.end_span(cache_span, "span", "server.cache")
            self.stats.reads.inc()
            self.stats.bytes_read.inc(inode.size)
            return rnode.data

    def size(self, cap: Capability):
        """Process: BULLET.SIZE — the file's size in bytes."""
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with incarnation.locks.reading(cap.object) as lock:
            yield lock.grant
            _number, inode = yield from self._check(incarnation, cap,
                                                    RIGHT_READ)
            self.stats.sizes.inc()
            return inode.size

    def delete(self, cap: Capability):
        """Process: BULLET.DELETE — discard the file.

        "Deleting a file involves checking the capability, freeing an
        inode by zeroing it and writing it back to the disk." The write
        lock makes the free safe under concurrency: no in-flight READ
        is still following the extent, and a CREATE's background
        replica writes to it have settled.
        """
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with incarnation.locks.writing(cap.object) as lock:
            yield lock.grant
            number, inode = yield from self._check(incarnation, cap,
                                                   RIGHT_DELETE)
            yield from self._destroy(incarnation, number, inode)
        self.stats.deletes.inc()
        if self._tracer is not None:
            self._trace("bullet", "delete", inode=number)

    def _destroy(self, incarnation: BulletIncarnation, number: int, inode):
        """Free an inode and its extent, write the change through; a
        dead ``incarnation`` frees in its own tables, then refuses."""
        blocks = incarnation.layout.blocks_for(inode.size)
        start_block = inode.start_block
        incarnation.cache.remove(number)
        incarnation.table.release(number)
        if blocks:
            incarnation.disk_free.free(start_block, blocks)
        incarnation.verified_caps.forget_object(number)
        incarnation.lives.discard(number)
        inode_block = incarnation.table.block_of_inode(number)
        yield incarnation.write(self.mirror, inode_block,
                                incarnation.table.encode_block(inode_block))

    def modify(self, cap: Capability, offset: int, delete_bytes: int,
               insert_data: bytes, p_factor: Optional[int] = None):
        """Process: the §5 extension — derive a new immutable file from an
        existing one entirely server-side, "such that for a small
        modification it is not necessary any longer to transfer the whole
        file". Returns the new file's owner capability; the original is
        untouched."""
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with incarnation.locks.reading(cap.object) as lock:
            yield lock.grant
            rights = RIGHT_READ | RIGHT_MODIFY
            number, inode = yield from self._check(incarnation, cap, rights)
            if (offset < 0 or delete_bytes < 0
                    or offset + delete_bytes > inode.size):
                raise BadRequestError(
                    f"modify range [{offset}, {offset + delete_bytes}) "
                    f"outside the {inode.size}-byte file"
                )
            rnode, _inode = yield from self._resident(
                incarnation, lock, cap, rights, number, inode)
            old = rnode.data
            new_data = (old[:offset] + insert_data
                        + old[offset + delete_bytes:])
        # The source bytes are composed; the derived CREATE below runs
        # without any hold on the source file.
        new_cap = yield from self._create(incarnation, new_data, p_factor)
        self.stats.modifies.inc()
        self.stats.bytes_modified.inc(len(new_data))
        return new_cap

    def restrict_cap(self, cap: Capability, mask: int):
        """Process: server-side rights restriction of a verified
        capability (any capability, unlike the client-local restrict)."""
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        number, inode = yield from self._check(incarnation, cap, 0)
        new_rights, new_check = server_restrict(cap.rights, inode.secret, mask)
        self.stats.restricts.inc()
        return Capability(port=self.port, object=number,
                          rights=new_rights, check=new_check)

    def touch(self, cap: Capability):
        """Process: std_touch — reset the object's lives to the maximum.

        The directory service's GC daemon touches every capability it
        can reach, so reachable files never age out.
        """
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        # The lives table is lock-guarded state: take the write lock so
        # a touch cannot interleave with a concurrent AGE sweep's
        # decrement-and-reclaim on the same object (uncontended, the
        # grant costs no simulated time).
        with incarnation.locks.writing(cap.object) as lock:
            yield lock.grant
            number, _inode = yield from self._check(incarnation, cap, 0)
            lives = self.testbed.bullet.max_lives
            incarnation.lives[number] = lives
            return lives

    def age_all(self):
        """Process: std_age — decrement every object's lives; reclaim
        the ones that reach zero (orphans nobody touched for max_lives
        sweeps). Returns the reclaimed inode numbers."""
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        reclaimed = []
        for number, _inode in list(incarnation.table.live_inodes()):
            # Decrement *under* the object's write lock: the lives table
            # is lock-guarded state, and folding the decrement into the
            # reclaim grant closes the window where a concurrent touch
            # could resurrect an object between the two passes without
            # being seen (uncontended, the grant costs no sim time).
            with incarnation.locks.writing(number) as lock:
                yield lock.grant
                incarnation.require_up()  # DESIGN.md §5c
                inode = incarnation.table.get(number)
                if inode.free:
                    continue  # a concurrent delete beat us to it
                lives = incarnation.lives.get(
                    number, self.testbed.bullet.max_lives) - 1
                incarnation.lives[number] = lives
                if lives > 0:
                    continue
                yield from self._destroy(incarnation, number, inode)
                self._trace("bullet", "aged out", inode=number)
                reclaimed.append(number)
        return reclaimed

    def lives_of(self, inode_number: int) -> int:
        """Remaining lives of a live object (for tests/monitoring)."""
        incarnation = self._require_booted()
        inode = incarnation.table.get(inode_number)
        if inode.free:
            raise NotFoundError(f"object {inode_number} does not exist")
        return incarnation.lives.get(inode_number,
                                     self.testbed.bullet.max_lives)

    def evict(self, inode_number: int) -> None:
        """Administratively drop a file from the RAM cache (keeps the
        inode.index invariant). Benchmarks use this to measure cold
        reads."""
        incarnation = self._require_booted()
        # Admin/bench path, deliberately lock-free: it runs synchronously
        # between measured phases, never inside the serve pool, and the
        # cache itself refuses to drop a pinned rnode. Taking the write
        # lock here would perturb the benchmark's lock metrics.
        incarnation.cache.remove(inode_number)
        inode = incarnation.table.get(inode_number)
        if not inode.free:
            inode.index = 0

    def stat(self, cap: Capability):
        """Process: std_status for the holder of any valid capability."""
        incarnation = self._require_booted()
        yield from self._check(incarnation, cap, 0)
        return self._status(incarnation)

    def status(self) -> dict:
        """std_status: live counters and space accounting (synchronous)."""
        return self._status(self._require_booted())

    def _status(self, incarnation: BulletIncarnation) -> dict:
        table, disk_free = incarnation.table, incarnation.disk_free
        cache = incarnation.cache
        return {
            "name": self.name,
            "files": table.live_count,
            "free_inodes": table.free_count,
            "disk_free_blocks": disk_free.free_units,
            "disk_largest_hole": disk_free.largest_hole,
            "disk_fragmentation": disk_free.external_fragmentation(),
            "cache_used_bytes": cache.used_bytes,
            "cache_free_bytes": cache.free_bytes,
            "cache_hit_rate": cache.stats.hit_rate,
            "replicas_live": self.mirror.replica_count,
            "workers": self.workers,
            "requests_inflight": self._inflight_count,
            "background_write_failures": self._bg_write_failures.value,
            "verified_caps_cached": len(incarnation.verified_caps),
            **self.stats.snapshot(),
        }

    def render_layout(self) -> str:
        """The Fig. 1 picture for the current volume state."""
        incarnation = self._require_booted()
        return render_layout(incarnation.table, incarnation.disk_free)

    # ----------------------------------------------------- internal paths

    def _check(self, incarnation: BulletIncarnation, cap: Capability,
               needed_rights: int):
        """Verify a capability and resolve its inode (generator).

        Charges the one-way-function cost, or the cheap cached-check cost
        for capabilities verified before ("capabilities can be cached to
        avoid decryption for each access").
        """
        cpu = self.testbed.cpu
        key = (cap.object, cap.rights, cap.check)
        self.stats.cap_checks.inc()
        if incarnation.verified_caps.hit(key):
            self.stats.cap_check_cache_hits.inc()
            yield self.env.timeout(cpu.capability_check_cached)
        else:
            yield self.env.timeout(cpu.capability_check)
        inode = self._revalidate(incarnation, cap, needed_rights)
        incarnation.verified_caps.add(key)
        return cap.object, inode

    def _revalidate(self, incarnation: BulletIncarnation, cap: Capability,
                    needed_rights: int):
        """The untimed tail of :meth:`_check`: resolve the capability
        against the incarnation's RAM state. Re-run after a lock upgrade
        — the file may have been deleted (or its inode number
        reincarnated) while this worker waited for the write lock."""
        table = incarnation.table
        if not 1 <= cap.object < len(table):
            raise NotFoundError(f"object {cap.object} out of range")
        inode = table.get(cap.object)
        if inode.free:
            raise NotFoundError(f"object {cap.object} does not exist")
        require(cap, inode.secret, needed_rights)
        return inode

    def _resident(self, incarnation: BulletIncarnation, lock,
                  cap: Capability, rights: int, number: int, inode):
        """The file's rnode, read into the RAM cache on a miss
        (generator); returns it touched, with the inode as last
        validated. The paper's read path: "the index field in the inode
        is inspected to see whether there is a copy of the file in the
        RAM cache"; on a miss "an rnode is allocated for this file ...
        Then the file can be read into the RAM cache." The probe does
        the hit/miss accounting: the cache is its only writer.
        """
        cache = incarnation.cache
        rnode = cache.probe_slot(number, inode.index)
        if rnode is None:
            # Miss: upgrade to the write lock before touching the disk,
            # so the extent cannot move (compaction) or be freed
            # (delete) under the read, and two concurrent misses cannot
            # both reserve cache space for the file.
            yield lock.upgrade()
            inode = self._revalidate(incarnation, cap, rights)
            # Re-probe statlessly: this request's miss is already
            # accounted; another worker may have loaded the file while
            # we waited for the lock.
            rnode = cache.peek(number)
        if rnode is None:
            incarnation.require_up()  # shared counters: DESIGN.md §5c
            tracer = self._tracer
            if tracer is not None:
                disk_span = tracer.begin_span(
                    "span", "server.disk", inode=number, size=inode.size)
            rnode = cache.reserve(number, inode.size)
            inode.index = rnode.number
            blocks = incarnation.layout.blocks_for(inode.size)
            try:
                data = (yield from self.mirror.read_with_failover(
                    inode.start_block, blocks)) if blocks else b""
            except BaseException:
                # A failed load unwinds before the error propagates: the
                # next probe must miss, not find an empty file.
                cache.unpin(rnode)
                cache.remove(number)
                inode.index = 0
                raise
            # A block-aligned file comes off the platter as the stored
            # object and the full slice is that object again: the cache
            # and the reply share it with both disks, nothing is copied.
            cache.fill(rnode, data[: inode.size])
            if tracer is not None:
                tracer.end_span(disk_span, "span", "server.disk")
        cache.touch(rnode)
        return rnode, inode

    # ------------------------------------------------------------ RPC plane

    def _request_began(self, opname: str) -> None:
        self._inflight_count += 1

    def _request_ended(self, reply: Optional[RpcReply]) -> None:
        self._inflight_count -= 1
        if reply is not None and not reply.ok:
            # Replies only go bad through the shared error chokepoint,
            # so this stays level with repro_server_error_replies_total.
            self.stats.errors.inc()

    def _dispatch(self, req: RpcRequest):
        op = req.opcode
        if op == OPCODES["CREATE"]:
            p_factor = req.args[0] if req.args else None
            cap = yield from self.create(req.body, p_factor)
            return RpcReply(caps=(cap,))
        if req.cap is None:
            raise BadRequestError("request carries no capability")
        if op == OPCODES["READ"]:
            data = yield from self.read(req.cap)
            return RpcReply(body=data)
        if op == OPCODES["SIZE"]:
            size = yield from self.size(req.cap)
            return RpcReply(args=(size,))
        if op == OPCODES["DELETE"]:
            yield from self.delete(req.cap)
            return RpcReply()
        if op == OPCODES["MODIFY"]:
            offset, delete_bytes, p_factor = req.args
            cap = yield from self.modify(req.cap, offset, delete_bytes,
                                         req.body, p_factor)
            return RpcReply(caps=(cap,))
        if op == OPCODES["STAT"]:
            status = yield from self.stat(req.cap)
            return RpcReply(args=(status,))
        if op == OPCODES["RESTRICT"]:
            mask = req.args[0]
            cap = yield from self.restrict_cap(req.cap, mask)
            return RpcReply(caps=(cap,))
        raise BadRequestError(f"unknown opcode {op}")
