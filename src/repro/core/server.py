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
from ..sim import Environment, SeededStream, Tracer
from .cache import BulletCache
from .freelist import ExtentFreeList
from .inode import InodeTable
from .layout import VolumeLayout, format_volume, render_layout
from .locks import FileLockTable
from .lockset import GuardedMap
from .recovery import ScanReport, scan_volume

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
    """Counters the server maintains for std_status-style reporting: a
    facade over registry counters
    (``repro_server_<field>_total{server=...}``), so ``std_status``, the
    exporters and the bench emitter report one and the same values."""

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
    invalidates one object's entries without rebuilding the whole set
    (both fixed here; the old implementation was an unbounded ``set``
    rebuilt on every delete).
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

    def clear(self) -> None:
        self._order.clear()
        self._by_object.clear()


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
        cache_policy: str = "lru",
        alloc_strategy: str = "first_fit",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        workers: int = 1,
    ):
        super().__init__(env, name, transport, tracer, metrics, workers)
        self.mirror = mirror
        self.testbed = testbed
        self.stats = ServerStats(self.metrics, server=name)
        # Hot-path instrument handles: the facade's attribute protocol
        # and the registry's label canonicalization are per-call costs
        # the serve loop should not pay (see RegistryStats.handle).
        self._c_reads = self.stats.handle("reads")
        self._c_bytes_read = self.stats.handle("bytes_read")
        self._c_cap_checks = self.stats.handle("cap_checks")
        self._c_cap_check_cache_hits = self.stats.handle(
            "cap_check_cache_hits")
        self._c_errors = self.stats.handle("errors")
        self._secrets = SeededStream(master_seed, f"{name}:secrets")
        self._cache_policy = cache_policy
        self._alloc_strategy = alloc_strategy
        self._verified_caps = VerifiedCapCache(testbed.bullet.cap_cache_entries)
        self._inflight_count = 0
        self._inflight = self.metrics.gauge(
            "repro_server_inflight", server=name)
        self._queue_depth = self.metrics.gauge(
            "repro_server_queue_depth", server=name)
        self._bg_write_failures = self.metrics.counter(
            "repro_background_write_failures_total", server=name)
        # Set by boot():
        self.table: InodeTable
        self.layout: VolumeLayout
        self.disk_free: ExtentFreeList
        self.cache: BulletCache
        self.locks: FileLockTable
        # Aging clocks, written by concurrent CREATE/TOUCH/AGE/DELETE
        # handlers, each under the inode's write lock.
        self._lives: GuardedMap[int]
        self.scan_report: ScanReport

    # ------------------------------------------------------------- setup

    def format(self) -> None:
        """mkfs every replica (untimed; done before the server's life)."""
        for disk in self.mirror.disks:
            format_volume(disk, self.testbed.bullet.inode_count)

    def boot(self, repair: bool = False):
        """Process: read the inode table from the primary disk, build the
        free lists, run the consistency checks, and start serving.

        "When the file server starts up, it reads the complete inode
        table into the RAM inode table and keeps it there permanently."
        """
        primary = self.mirror.primary
        layout = VolumeLayout.for_disk(primary, self.testbed.bullet.inode_count)
        raw = yield primary.read(0, layout.inode_table_blocks)
        self.table = InodeTable.decode(raw, primary.block_size)
        self.layout = layout
        self.disk_free, self.scan_report = scan_volume(
            self.table, layout, repair=repair, strategy=self._alloc_strategy
        )
        cache_bytes = (
            self.testbed.bullet.ram_bytes - self.testbed.bullet.reserved_ram_bytes
        )
        self.cache = BulletCache(
            cache_bytes,
            rnode_count=self.testbed.bullet.rnode_count,
            policy=self._cache_policy,
            on_evict=self._on_evict,
            metrics=self.metrics,
            owner=self.name,
        )
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
            number: self.testbed.bullet.max_lives
            for number, _inode in self.table.live_inodes()
        })
        # The lock plane is volatile per-boot state, like the cache: a
        # crash drops every hold (RAM is gone) and a reboot starts clean.
        self.locks = FileLockTable(self.env, metrics=self.metrics,
                                   owner=self.name)
        self.metrics.gauge("repro_server_workers",
                           server=self.name).set(self.workers)
        self._start_serving()
        self._trace("bullet", f"{self.name} booted", files=self.scan_report.live_files)
        return self.scan_report

    def crash(self) -> None:
        """Stop serving and lose all volatile state (RAM cache, verified-
        capability cache); a half-performed CREATE leaves whatever it
        had already written durably on disk."""
        super().crash()
        self._verified_caps.clear()

    # --------------------------------------------------------- local API

    def create(self, data: bytes, p_factor: Optional[int] = None):
        """Process: BULLET.CREATE — store an immutable file, reply per the
        paranoia factor. Returns the owner :class:`Capability`."""
        self._require_booted()
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
        start_block = self.disk_free.allocate(blocks) if blocks else 0
        secret = self._secrets.randint(1, (1 << 48) - 1)
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
            durable, writes = self.mirror.write_ordered(extents, p_factor)
            # Start the aging clock while this handler still owns the
            # write grant: a TOUCH or AGE sweep can only see the entry
            # after taking the lock.
            self._lives[number] = self.testbed.bullet.max_lives
            # Fork the settle watcher: it owns the write grant from here
            # and accounts any background replica failure (satellite fix:
            # p=0 used to drop those on the floor).
            settle = self.env.process(
                self._settle_create(number, lock.grant, writes))
            lock.detach(settle)
            if p_factor > 0:
                yield durable
        self.stats.creates += 1
        self.stats.bytes_created += size
        if self._tracer is not None:
            self._trace("bullet", "create", inode=number, size=size,
                        p=p_factor)
        return mint_owner(self.port, number, secret)

    def _settle_create(self, number: int, grant, writes):
        """Process: watch a CREATE's replica writes to completion, then
        drop the file's write lock. Failures beyond the quorum (all of
        them, at p_factor=0) are counted, traced, and surfaced in
        :meth:`status` instead of being silently defused."""
        with self.locks.adopt(grant):
            for write in writes:
                try:
                    # Intentional blocking section: holding the write
                    # grant until the replica writes settle is the whole
                    # point of the handoff (no reader may chase the
                    # extent to disk before it is durable).
                    yield write
                except ReproError as exc:
                    self._bg_write_failures.inc()
                    self._trace("bullet", "background replica write failed",
                                inode=number, status=exc.status.name)

    def read(self, cap: Capability):
        """Process: BULLET.READ — returns the whole file contents."""
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with self.locks.reading(cap.object) as lock:
            yield lock.grant
            number, inode = yield from self._check(cap, RIGHT_READ)
            tracing = self._tracer is not None
            rnode = self._cached_rnode(number, inode)
            if rnode is None:
                # Miss: upgrade to the write lock before touching the
                # disk, so the extent cannot move (compaction) or be
                # freed (delete) under the read, and two concurrent
                # misses cannot both reserve cache space for the file.
                yield lock.upgrade()
                inode = self._revalidate(cap, RIGHT_READ)
                # Re-probe statlessly: this request's miss is already
                # accounted; another worker may have loaded the file
                # while we waited for the lock.
                rnode = self.cache.peek(number)
            if rnode is None:
                disk_span = self._span_begin(
                    "server.disk", inode=number, size=inode.size
                ) if tracing else 0
                rnode = yield from self._load_from_disk(number, inode)
                if tracing:
                    self._span_end(disk_span, "server.disk")
            self.cache.touch(rnode)
            # Copy from the contiguous cache into the network buffers;
            # pinned so no concurrent miss can evict it mid-copy.
            cache_span = self._span_begin(
                "server.cache", inode=number, size=inode.size
            ) if tracing else 0
            self.cache.pin(rnode)
            try:
                yield self.env.timeout(
                    inode.size * self.testbed.cpu.memcpy_per_byte)
            finally:
                self.cache.unpin(rnode)
            if tracing:
                self._span_end(cache_span, "server.cache")
            self._c_reads.inc(1)
            self._c_bytes_read.inc(inode.size)
            return rnode.data

    def size(self, cap: Capability):
        """Process: BULLET.SIZE — the file's size in bytes."""
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with self.locks.reading(cap.object) as lock:
            yield lock.grant
            _number, inode = yield from self._check(cap, RIGHT_READ)
            self.stats.sizes += 1
            return inode.size

    def delete(self, cap: Capability):
        """Process: BULLET.DELETE — discard the file.

        "Deleting a file involves checking the capability, freeing an
        inode by zeroing it and writing it back to the disk." The write
        lock makes the free safe under concurrency: no in-flight READ
        is still following the extent, and a CREATE's background
        replica writes to it have settled.
        """
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        with self.locks.writing(cap.object) as lock:
            yield lock.grant
            number, inode = yield from self._check(cap, RIGHT_DELETE)
            yield from self._destroy(number, inode)
        self.stats.deletes += 1
        if self._tracer is not None:
            self._trace("bullet", "delete", inode=number)

    def _destroy(self, number: int, inode):
        """Free an inode and its extent, write the change through."""
        blocks = self.layout.blocks_for(inode.size)
        start_block = inode.start_block
        self.cache.remove(number)
        self.table.release(number)
        if blocks:
            self.disk_free.free(start_block, blocks)
        self._forget_caps(number)
        self._lives.discard(number)
        inode_block = self.table.block_of_inode(number)
        yield self.mirror.write(
            inode_block, self.table.encode_block(inode_block))

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
            number, inode = yield from self._check(
                cap, RIGHT_READ | RIGHT_MODIFY)
            if (offset < 0 or delete_bytes < 0
                    or offset + delete_bytes > inode.size):
                raise BadRequestError(
                    f"modify range [{offset}, {offset + delete_bytes}) "
                    f"outside the {inode.size}-byte file"
                )
            tracing = self._tracer is not None
            rnode = self._cached_rnode(number, inode)
            if rnode is None:
                # Same upgrade dance as the READ miss path.
                yield lock.upgrade()
                inode = self._revalidate(cap, RIGHT_READ | RIGHT_MODIFY)
                rnode = self.cache.peek(number)
            if rnode is None:
                rnode = yield from self._load_from_disk(number, inode)
            self.cache.touch(rnode)
            old = rnode.data
            new_data = (old[:offset] + insert_data
                        + old[offset + delete_bytes:])
        # The source bytes are composed; the derived CREATE below runs
        # without any hold on the source file.
        new_cap = yield from self.create(new_data, p_factor)
        self.stats.modifies += 1
        self.stats.bytes_modified += len(new_data)
        return new_cap

    def restrict_cap(self, cap: Capability, mask: int):
        """Process: server-side rights restriction of a verified
        capability (any capability, unlike the client-local restrict)."""
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        number, inode = yield from self._check(cap, 0)
        new_rights, new_check = server_restrict(cap.rights, inode.secret, mask)
        self.stats.restricts += 1
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
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        reclaimed = []
        for number, _inode in list(self.table.live_inodes()):
            # Decrement *under* the object's write lock: the lives table
            # is lock-guarded state, and folding the decrement into the
            # reclaim grant closes the window where a concurrent touch
            # could resurrect an object between the two passes without
            # being seen (uncontended, the grant costs no sim time).
            with self.locks.writing(number) as lock:
                yield lock.grant
                inode = self.table.get(number)
                if inode.free:
                    continue  # a concurrent delete beat us to it
                lives = self._lives.get(
                    number, self.testbed.bullet.max_lives) - 1
                self._lives[number] = lives
                if lives > 0:
                    continue
                yield from self._destroy(number, inode)
                self._trace("bullet", "aged out", inode=number)
                reclaimed.append(number)
        return reclaimed

    def lives_of(self, inode_number: int) -> int:
        """Remaining lives of a live object (for tests/monitoring)."""
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
        self._c_cap_checks.inc(1)
        if self._verified_caps.hit(key):
            self._c_cap_check_cache_hits.inc(1)
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

    def _cached_rnode(self, number: int, inode):
        """Cache probe via the inode's index field. The accounting lives
        in :meth:`~repro.core.cache.BulletCache.probe_slot` — the cache
        is the only writer of its hit/miss counters, so the server
        cannot double count."""
        return self.cache.probe_slot(number, inode.index)

    def _load_from_disk(self, number: int, inode):
        """Read-miss path: reserve contiguous cache space (evicting LRU
        files as needed), then one contiguous disk read."""
        rnode = self.cache.reserve(number, inode.size)
        inode.index = rnode.number
        blocks = self.layout.blocks_for(inode.size)
        if blocks:
            data = yield from self.mirror.read_with_failover(
                inode.start_block, blocks
            )
            # A block-aligned file comes off the platter as the stored
            # object and the full slice is that object again: the cache
            # and the reply share it with both disks, nothing is copied.
            self.cache.fill(rnode, data[: inode.size])
        else:
            self.cache.fill(rnode, b"")
        return rnode

    def _on_evict(self, inode_number: int) -> None:
        """Cache eviction callback: clear the inode's index field."""
        inode = self.table.get(inode_number)
        inode.index = 0

    def _forget_caps(self, number: int) -> None:
        self._verified_caps.forget_object(number)

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
            self._c_errors.inc(1)

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
