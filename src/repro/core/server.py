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
from ..net import RpcReply, RpcRequest, RpcService, RpcTransport
from ..obs import MetricsRegistry, RegistryStats
from ..profiles import Testbed
from ..sim import Environment, Interrupt, Tracer
from .cache import BulletCache
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


class BulletServer(RpcService):
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
        self._inflight = self.metrics.gauge(
            "repro_server_inflight", server=name)
        self._queue_depth = self.metrics.gauge(
            "repro_server_queue_depth", server=name)
        self._bg_write_failures = self.metrics.counter(
            "repro_background_write_failures_total", server=name)
        # boot() builds table, layout, disk_free, cache, _verified_caps,
        # locks and _lives (the aging clocks, under the inode locks).

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
        self.table = InodeTable.decode(raw, primary.block_size)
        self.layout = layout
        self.disk_free, report = scan_volume(
            self.table, layout, strategy=self._alloc_strategy
        )
        self.cache = BulletCache(
            profile.ram_bytes - profile.reserved_ram_bytes,
            rnode_count=profile.rnode_count,
            on_evict=self._on_evict,
            metrics=self.metrics,
            owner=self.name,
        )
        self._verified_caps = VerifiedCapCache(profile.cap_cache_entries)
        self.disk_free.attach_gauges(
            fragmentation=self.metrics.gauge(
                "repro_freelist_fragmentation", area=f"{self.name}:disk"),
            free_units=self.metrics.gauge(
                "repro_freelist_free_units", area=f"{self.name}:disk"),
            largest_hole=self.metrics.gauge(
                "repro_freelist_largest_hole", area=f"{self.name}:disk"),
        )
        # Every surviving file starts its aging clock afresh; orphans
        # left by pre-crash clients die after max_lives sweeps.
        self._lives = GuardedMap(f"{self.name}._lives", self.env, {
            number: profile.max_lives
            for number, _inode in self.table.live_inodes()
        })
        # The lock plane is volatile per-boot state, like the cache: a
        # reboot starts with no hold.
        self.locks = FileLockTable(self.env, metrics=self.metrics,
                                   owner=self.name)
        self.metrics.gauge("repro_server_workers",
                           server=self.name).set(self.workers)
        self._start_serving(self._incarnation())
        self._trace("bullet", f"{self.name} booted", files=report.live_files)
        return report

    # --------------------------------------------------------- local API

    def create(self, data: bytes, p_factor: Optional[int] = None):
        """Process: BULLET.CREATE — store an immutable file, reply per the
        paranoia factor. Returns the owner :class:`Capability`."""
        incarnation = self._require_booted()
        cpu = self.testbed.cpu
        yield self.env.timeout(cpu.request_dispatch)
        if p_factor is None:
            p_factor = self.testbed.bullet.default_p_factor
        self.mirror.check_p_factor(p_factor)
        size = len(data)
        if size > self.cache.capacity:
            raise FileTooBigError(
                f"{size}-byte file exceeds the server's {self.cache.capacity}-byte memory"
            )
        blocks = self.layout.blocks_for(size)
        # A local call may have outlived its incarnation during the
        # dispatch: refuse before allocating from a later one's tables.
        incarnation.require_up()
        start_block = self.disk_free.allocate(blocks) if blocks else 0
        secret = self._mint_secret()
        try:
            number = self.table.allocate(secret, start_block, size)
        except ReproError:
            if blocks:
                self.disk_free.free(start_block, blocks)
            raise
        # Copy the file into the contiguous RAM cache.
        try:
            rnode = self.cache.insert(number, data)
        except ReproError:
            self.table.release(number)
            if blocks:
                self.disk_free.free(start_block, blocks)
            raise
        self.table.get(number).index = rnode.number
        # Hold the new file's write lock until *every* replica write has
        # settled: no reader can chase the extent to disk, no compaction
        # can move it, and no delete can free it while background
        # replica writes are still in flight (at p_factor=0 the client
        # holds a capability long before the data is durable anywhere).
        with self.locks.writing(number) as lock:
            yield lock.grant
            yield self.env.timeout(size * cpu.memcpy_per_byte)
            # Write-through: data extent then inode block, per replica.
            inode_block = self.table.block_of_inode(number)
            extents = [(start_block, data)] if blocks else []
            extents.append(
                (inode_block, self.table.encode_block(inode_block)))
            durable, writes = incarnation.write_ordered(
                self.mirror, extents, p_factor)
            # Start the aging clock while this handler still owns the
            # write grant: a TOUCH or AGE sweep can only see the entry
            # after taking the lock.
            self._lives[number] = self.testbed.bullet.max_lives
            # Fork the settle watcher: it owns the write grant from here
            # and accounts any background replica failure.
            settle = incarnation.spawn(
                self._settle_create(number, lock.grant, writes))
            lock.detach(settle)
            if p_factor > 0:
                yield durable
        self.stats.creates.inc()
        self.stats.bytes_created.inc(size)
        if self._tracer is not None:
            self._trace("bullet", "create", inode=number, size=size,
                        p=p_factor)
        return mint_owner(self.port, number, secret)

    def _settle_create(self, number: int, grant, writes):
        """Process: watch a CREATE's replica writes to completion, then
        drop the file's write lock. Failures beyond the quorum (all of
        them, at p_factor=0) are counted, traced, and surfaced in
        :meth:`status` instead of being silently defused. A crash stops
        the replica writes: each disk finishes what it holds, no more."""
        with self.locks.adopt(grant):
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
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with self.locks.reading(cap.object) as lock:
            yield lock.grant
            number, inode = yield from self._check(cap, RIGHT_READ)
            rnode, inode = yield from self._resident(
                lock, cap, RIGHT_READ, number, inode)
            tracer = self._tracer
            # Copy from the contiguous cache into the network buffers;
            # pinned so no concurrent miss can evict it mid-copy.
            if tracer is not None:
                cache_span = tracer.begin_span(
                    "span", "server.cache", inode=number, size=inode.size)
            self.cache.pin(rnode)
            try:
                yield self.env.timeout(
                    inode.size * self.testbed.cpu.memcpy_per_byte)
            finally:
                self.cache.unpin(rnode)
            if tracer is not None:
                tracer.end_span(cache_span, "span", "server.cache")
            self.stats.reads.inc()
            self.stats.bytes_read.inc(inode.size)
            return rnode.data

    def size(self, cap: Capability):
        """Process: BULLET.SIZE — the file's size in bytes."""
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with self.locks.reading(cap.object) as lock:
            yield lock.grant
            _number, inode = yield from self._check(cap, RIGHT_READ)
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
        with self.locks.writing(cap.object) as lock:
            yield lock.grant
            number, inode = yield from self._check(cap, RIGHT_DELETE)
            yield from self._destroy(number, inode, incarnation)
        self.stats.deletes.inc()
        if self._tracer is not None:
            self._trace("bullet", "delete", inode=number)

    def _destroy(self, number: int, inode, incarnation):
        """Free an inode and its extent, write the change through; a
        dead ``incarnation`` refuses before it frees anything."""
        incarnation.require_up()
        blocks = self.layout.blocks_for(inode.size)
        start_block = inode.start_block
        self.cache.remove(number)
        self.table.release(number)
        if blocks:
            self.disk_free.free(start_block, blocks)
        self._verified_caps.forget_object(number)
        self._lives.discard(number)
        inode_block = self.table.block_of_inode(number)
        yield incarnation.write(
            self.mirror, inode_block, self.table.encode_block(inode_block))

    def modify(self, cap: Capability, offset: int, delete_bytes: int,
               insert_data: bytes, p_factor: Optional[int] = None):
        """Process: the §5 extension — derive a new immutable file from an
        existing one entirely server-side, "such that for a small
        modification it is not necessary any longer to transfer the whole
        file". Returns the new file's owner capability; the original is
        untouched."""
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with self.locks.reading(cap.object) as lock:
            yield lock.grant
            rights = RIGHT_READ | RIGHT_MODIFY
            number, inode = yield from self._check(cap, rights)
            if (offset < 0 or delete_bytes < 0
                    or offset + delete_bytes > inode.size):
                raise BadRequestError(
                    f"modify range [{offset}, {offset + delete_bytes}) "
                    f"outside the {inode.size}-byte file"
                )
            rnode, _inode = yield from self._resident(
                lock, cap, rights, number, inode)
            old = rnode.data
            new_data = (old[:offset] + insert_data
                        + old[offset + delete_bytes:])
        # The source bytes are composed; the derived CREATE below runs
        # without any hold on the source file.
        new_cap = yield from self.create(new_data, p_factor)
        self.stats.modifies.inc()
        self.stats.bytes_modified.inc(len(new_data))
        return new_cap

    def restrict_cap(self, cap: Capability, mask: int):
        """Process: server-side rights restriction of a verified
        capability (any capability, unlike the client-local restrict)."""
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        number, inode = yield from self._check(cap, 0)
        new_rights, new_check = server_restrict(cap.rights, inode.secret, mask)
        self.stats.restricts.inc()
        return Capability(port=self.port, object=number,
                          rights=new_rights, check=new_check)

    def touch(self, cap: Capability):
        """Process: std_touch — reset the object's lives to the maximum.

        The directory service's GC daemon touches every capability it
        can reach, so reachable files never age out.
        """
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        # The lives table is lock-guarded state: take the write lock so
        # a touch cannot interleave with a concurrent AGE sweep's
        # decrement-and-reclaim on the same object (uncontended, the
        # grant costs no simulated time).
        with self.locks.writing(cap.object) as lock:
            yield lock.grant
            number, _inode = yield from self._check(cap, 0)
            lives = self.testbed.bullet.max_lives
            self._lives[number] = lives
            return lives

    def age_all(self):
        """Process: std_age — decrement every object's lives; reclaim
        the ones that reach zero (orphans nobody touched for max_lives
        sweeps). Returns the reclaimed inode numbers."""
        incarnation = self._require_booted()
        # The sweep walks this incarnation's inode table and lock table,
        # as a compaction pass does, and stops at its first step after
        # a crash.
        table, locks = self.table, self.locks
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        reclaimed = []
        for number, _inode in list(table.live_inodes()):
            # Decrement *under* the object's write lock: the lives table
            # is lock-guarded state, and folding the decrement into the
            # reclaim grant closes the window where a concurrent touch
            # could resurrect an object between the two passes without
            # being seen (uncontended, the grant costs no sim time).
            with locks.writing(number) as lock:
                yield lock.grant
                incarnation.require_up()
                inode = table.get(number)
                if inode.free:
                    continue  # a concurrent delete beat us to it
                lives = self._lives.get(
                    number, self.testbed.bullet.max_lives) - 1
                self._lives[number] = lives
                if lives > 0:
                    continue
                yield from self._destroy(number, inode, incarnation)
                self._trace("bullet", "aged out", inode=number)
                reclaimed.append(number)
        return reclaimed

    def lives_of(self, inode_number: int) -> int:
        """Remaining lives of a live object (for tests/monitoring)."""
        self._require_booted()
        inode = self.table.get(inode_number)
        if inode.free:
            raise NotFoundError(f"object {inode_number} does not exist")
        return self._lives.get(inode_number, self.testbed.bullet.max_lives)

    def evict(self, inode_number: int) -> None:
        """Administratively drop a file from the RAM cache (keeps the
        inode.index invariant). Benchmarks use this to measure cold
        reads."""
        self._require_booted()
        # Admin/bench path, deliberately lock-free: it runs synchronously
        # between measured phases, never inside the serve pool, and the
        # cache itself refuses to drop a pinned rnode. Taking the write
        # lock here would perturb the benchmark's lock metrics.
        self.cache.remove(inode_number)
        inode = self.table.get(inode_number)
        if not inode.free:
            inode.index = 0

    def stat(self, cap: Capability):
        """Process: std_status for the holder of any valid capability."""
        self._require_booted()
        yield from self._check(cap, 0)
        return self.status()

    def status(self) -> dict:
        """std_status: live counters and space accounting (synchronous)."""
        self._require_booted()
        return {
            "name": self.name,
            "files": self.table.live_count,
            "free_inodes": self.table.free_count,
            "disk_free_blocks": self.disk_free.free_units,
            "disk_largest_hole": self.disk_free.largest_hole,
            "disk_fragmentation": self.disk_free.external_fragmentation(),
            "cache_used_bytes": self.cache.used_bytes,
            "cache_free_bytes": self.cache.free_bytes,
            "cache_hit_rate": self.cache.stats.hit_rate,
            "replicas_live": self.mirror.replica_count,
            "workers": self.workers,
            "requests_inflight": self._inflight_count,
            "background_write_failures": self._bg_write_failures.value,
            "verified_caps_cached": len(self._verified_caps),
            **self.stats.snapshot(),
        }

    def render_layout(self) -> str:
        """The Fig. 1 picture for the current volume state."""
        self._require_booted()
        return render_layout(self.table, self.disk_free)

    # ----------------------------------------------------- internal paths

    def _check(self, cap: Capability, needed_rights: int):
        """Verify a capability and resolve its inode (generator).

        Charges the one-way-function cost, or the cheap cached-check cost
        for capabilities verified before ("capabilities can be cached to
        avoid decryption for each access").
        """
        cpu = self.testbed.cpu
        key = (cap.object, cap.rights, cap.check)
        self.stats.cap_checks.inc()
        if self._verified_caps.hit(key):
            self.stats.cap_check_cache_hits.inc()
            yield self.env.timeout(cpu.capability_check_cached)
        else:
            yield self.env.timeout(cpu.capability_check)
        inode = self._revalidate(cap, needed_rights)
        self._verified_caps.add(key)
        return cap.object, inode

    def _revalidate(self, cap: Capability, needed_rights: int):
        """The untimed tail of :meth:`_check`: resolve the capability
        against current RAM state. Re-run after a lock upgrade — the
        file may have been deleted (or its inode number reincarnated)
        while this worker waited for the write lock."""
        if not 1 <= cap.object < len(self.table):
            raise NotFoundError(f"object {cap.object} out of range")
        inode = self.table.get(cap.object)
        if inode.free:
            raise NotFoundError(f"object {cap.object} does not exist")
        require(cap, inode.secret, needed_rights)
        return inode

    def _resident(self, lock, cap: Capability, rights: int, number: int,
                  inode):
        """The file's rnode, read into the RAM cache on a miss
        (generator); returns it touched, with the inode as last
        validated. The paper's read path: "the index field in the inode
        is inspected to see whether there is a copy of the file in the
        RAM cache"; on a miss "an rnode is allocated for this file ...
        Then the file can be read into the RAM cache." The probe does
        the hit/miss accounting: the cache is its only writer.
        """
        cache = self.cache
        rnode = cache.probe_slot(number, inode.index)
        if rnode is None:
            # Miss: upgrade to the write lock before touching the disk,
            # so the extent cannot move (compaction) or be freed
            # (delete) under the read, and two concurrent misses cannot
            # both reserve cache space for the file.
            yield lock.upgrade()
            inode = self._revalidate(cap, rights)
            # Re-probe statlessly: this request's miss is already
            # accounted; another worker may have loaded the file while
            # we waited for the lock.
            rnode = cache.peek(number)
        if rnode is None:
            tracer = self._tracer
            if tracer is not None:
                disk_span = tracer.begin_span(
                    "span", "server.disk", inode=number, size=inode.size)
            rnode = cache.reserve(number, inode.size)
            inode.index = rnode.number
            blocks = self.layout.blocks_for(inode.size)
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

    def _on_evict(self, inode_number: int) -> None:
        """Cache eviction callback: clear the inode's index field."""
        inode = self.table.get(inode_number)
        inode.index = 0

    # ------------------------------------------------------------ RPC plane

    def _request_began(self, opname: str, queued: int) -> None:
        self._queue_depth.set(queued)
        self._inflight_count += 1
        self._inflight.set(self._inflight_count)

    def _request_ended(self, reply: Optional[RpcReply]) -> None:
        self._inflight_count -= 1
        self._inflight.set(self._inflight_count)
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
