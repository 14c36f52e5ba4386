"""The Bullet server's RAM file cache (§3).

"A separate table in RAM maintains the administration of the cached
files. The entries ... are called rnodes. An rnode contains: 1) the
inode table index of the corresponding file; 2) a pointer to the file in
RAM cache; 3) an age field to implement an LRU cache strategy. The free
rnodes and free parts in the RAM cache are also maintained using free
lists."

Files are cached **whole and contiguous**: the cache is modeled as one
byte-addressed arena managed by an :class:`~repro.core.freelist.ExtentFreeList`,
so external fragmentation of the cache is real and
:meth:`BulletCache.compact` ("the fragmentation in memory can be
alleviated by compacting part or all of the RAM cache from time to
time") is functional, not cosmetic.

Eviction is LRU by the rnodes' age field; FIFO is available as the A3
ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import (
    BadRequestError,
    ConsistencyError,
    FileTooBigError,
    NoSpaceError,
)
from ..obs import MetricsRegistry, RegistryStats
from .freelist import ExtentFreeList

__all__ = ["Rnode", "BulletCache", "CacheStats"]


@dataclass
class Rnode:
    """One cached file."""

    number: int         # rnode slot number (1-based; stored in inode.index)
    inode_number: int   # back-pointer to the inode table
    addr: int           # offset of the file in the cache arena
    size: int           # file size in bytes
    age: int            # last-access tick (LRU)
    inserted: int       # insertion tick (FIFO ablation)
    data: bytes         # the file contents (whole and contiguous)
    busy: bool = False  # mid-load (reserve/fill window); not evictable
    pins: int = 0       # concurrent transfers copying out of the arena


class CacheStats(RegistryStats):
    """Cache accounting, backed by the observability registry.

    The cache is the *only* writer of hits/misses/lookups (the server
    once bumped these directly alongside :meth:`BulletCache.lookup` and
    double counted); every probe goes through
    :meth:`BulletCache.lookup` or :meth:`BulletCache.probe_slot`, so
    ``hits + misses == lookups`` is a checked conservation invariant.
    """

    _PREFIX = "repro_cache"
    _COUNTER_FIELDS = (
        "lookups",
        "hits",
        "misses",
        "evictions",
        "compactions",
        "inserted_bytes",
        "evicted_bytes",
    )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BulletCache:
    """Whole-file RAM cache with contiguous placement."""

    def __init__(self, capacity_bytes: int, rnode_count: int = 4096,
                 policy: str = "lru",
                 on_evict: Optional[Callable[[int], None]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 owner: str = "bullet"):
        if capacity_bytes <= 0:
            raise BadRequestError("cache capacity must be positive")
        if rnode_count < 1:
            raise BadRequestError("need at least one rnode")
        if policy not in ("lru", "fifo"):
            raise BadRequestError(f"unknown eviction policy {policy!r}")
        self.capacity = capacity_bytes
        self.policy = policy
        self.stats = CacheStats(metrics, cache=owner)
        self._s_lookups = self.stats.handle("lookups")
        self._s_hits = self.stats.handle("hits")
        self._s_misses = self.stats.handle("misses")
        #: Called with the evicted file's inode number, so the server can
        #: clear the inode's index field.
        self.on_evict = on_evict
        self._arena: ExtentFreeList = ExtentFreeList(
            0, capacity_bytes, strategy="first_fit")
        self._attach_arena_gauges(owner)
        # Shared by every handler in the worker pool and *not* protected
        # by the file locks (CREATE inserts before it holds any grant).
        # What protects them: no method here yields, so each probe and
        # the mutation that follows it are one atomic step under the
        # cooperative kernel; and a handler that keeps an rnode across a
        # yield pins it — eviction skips a pinned rnode and remove()
        # refuses one with a ConsistencyError.
        self._rnodes: dict[int, Rnode] = {}
        self._by_inode: dict[int, Rnode] = {}
        self._free_slots = list(range(rnode_count, 0, -1))
        self._tick = 0

    def _attach_arena_gauges(self, owner: str) -> None:
        """Publish the arena's fragmentation state as registry gauges
        (re-attached after :meth:`compact` rebuilds the arena)."""
        registry = self.stats.registry
        self._arena.attach_gauges(
            fragmentation=registry.gauge(
                "repro_freelist_fragmentation", area=f"{owner}:cache"),
            free_units=registry.gauge(
                "repro_freelist_free_units", area=f"{owner}:cache"),
            largest_hole=registry.gauge(
                "repro_freelist_largest_hole", area=f"{owner}:cache"),
        )

    # ------------------------------------------------------------ queries

    @property
    def used_bytes(self) -> int:
        return self._arena.used_units

    @property
    def free_bytes(self) -> int:
        return self._arena.free_units

    @property
    def cached_files(self) -> int:
        return len(self._rnodes)

    def lookup(self, inode_number: int) -> Optional[Rnode]:
        """The rnode caching ``inode_number``, or None (counts hit/miss)."""
        rnode = self._by_inode.get(inode_number)
        self._s_lookups.inc(1)
        if rnode is None:
            self._s_misses.inc(1)
        else:
            self._s_hits.inc(1)
        return rnode

    def probe_slot(self, inode_number: int, index: int) -> Optional[Rnode]:
        """The paper's cache probe: 'the index field in the inode is
        inspected to see whether there is a copy of the file in the RAM
        cache'. ``index`` is the inode's index field (0 = not cached).

        This — not the server — does the hit/miss accounting, so the
        cache is the single counting authority and
        ``hits + misses == lookups`` holds by construction.
        """
        self._s_lookups.inc(1)
        if index == 0:
            self._s_misses.inc(1)
            return None
        rnode = self.get_slot(index)
        if rnode.inode_number != inode_number:
            raise ConsistencyError(
                f"inode.index out of sync: slot {index} caches inode "
                f"{rnode.inode_number}, expected {inode_number}"
            )
        self._s_hits.inc(1)
        return rnode

    def peek(self, inode_number: int) -> Optional[Rnode]:
        """Like :meth:`lookup` but without touching the statistics."""
        return self._by_inode.get(inode_number)

    def get_slot(self, rnode_number: int) -> Rnode:
        """Resolve an inode's index field to its rnode (paper's path:
        'the index is used to locate an rnode')."""
        rnode = self._rnodes.get(rnode_number)
        if rnode is None:
            raise BadRequestError(f"no rnode in slot {rnode_number}")
        return rnode

    def touch(self, rnode: Rnode) -> None:
        """Update the age field to mark a recent access."""
        self._tick += 1
        rnode.age = self._tick

    def pin(self, rnode: Rnode) -> None:
        """Hold the rnode's arena extent across a timed transfer: a
        pinned file cannot be evicted, so a concurrent miss can never
        reuse the bytes a memcpy is still reading (torn read)."""
        rnode.pins += 1

    def unpin(self, rnode: Rnode) -> None:
        if rnode.pins <= 0:
            raise ConsistencyError(
                f"unpin of rnode {rnode.number} which has no pins")
        rnode.pins -= 1

    # ----------------------------------------------------------- mutation

    def insert(self, inode_number: int, data: bytes) -> Rnode:
        """Cache a whole file, evicting and compacting as needed.

        Raises :class:`FileTooBigError` when the file exceeds the cache
        (the server cannot hold it contiguously in memory at all) and
        :class:`NoSpaceError` when every evictable file is busy.
        """
        size = len(data)
        if size > self.capacity:
            raise FileTooBigError(
                f"file of {size} bytes exceeds the {self.capacity}-byte cache"
            )
        if inode_number in self._by_inode:
            raise BadRequestError(f"inode {inode_number} is already cached")
        if not self._free_slots and not self._evict_one():
            raise NoSpaceError(
                "no free rnode slot (every cached file is pinned)"
            )
        addr = self._make_room(size)
        self._tick += 1
        rnode = Rnode(
            number=self._free_slots.pop(),
            inode_number=inode_number,
            addr=addr,
            size=size,
            age=self._tick,
            inserted=self._tick,
            data=bytes(data),
        )
        self._rnodes[rnode.number] = rnode
        self._by_inode[inode_number] = rnode
        self.stats.inserted_bytes += size
        return rnode

    def reserve(self, inode_number: int, size: int) -> Rnode:
        """Allocate space for a file about to be loaded from disk.

        The rnode is marked busy (pinned) until :meth:`fill` supplies the
        bytes, so the in-flight load cannot be evicted from under the
        disk read — the paper's read-miss path: "an rnode is allocated
        for this file ... Then the file can be read into the RAM cache."
        """
        rnode = self.insert(inode_number, bytes(0))
        if size > self.capacity:
            self._release(rnode)
            raise FileTooBigError(
                f"file of {size} bytes exceeds the {self.capacity}-byte cache"
            )
        if size > 0:
            try:
                addr = self._make_room(size)
            except NoSpaceError:
                self._release(rnode)
                raise
            rnode.addr = addr
            rnode.size = size
        rnode.busy = True
        return rnode

    def fill(self, rnode: Rnode, data: bytes) -> None:
        """Complete a :meth:`reserve` with the loaded bytes."""
        if len(data) != rnode.size:
            raise BadRequestError(
                f"fill size {len(data)} != reserved size {rnode.size}"
            )
        rnode.data = bytes(data)
        rnode.busy = False
        self.stats.inserted_bytes += rnode.size

    def remove(self, inode_number: int) -> None:
        """Drop a file from the cache (delete path); no-op if absent."""
        rnode = self._by_inode.pop(inode_number, None)
        if rnode is None:
            return
        self._release(rnode)

    def _release(self, rnode: Rnode) -> None:
        if rnode.pins > 0:
            # Reaching here means a caller freed a file some transfer is
            # still copying — exactly the race the lock plane exists to
            # prevent, so fail loudly instead of tearing the read.
            raise ConsistencyError(
                f"releasing rnode {rnode.number} (inode "
                f"{rnode.inode_number}) while {rnode.pins} transfers "
                f"have it pinned"
            )
        del self._rnodes[rnode.number]
        self._by_inode.pop(rnode.inode_number, None)
        if rnode.size > 0:
            self._arena.free(rnode.addr, rnode.size)
        self._free_slots.append(rnode.number)

    def _make_room(self, size: int) -> int:
        """Allocate ``size`` contiguous bytes, evicting least-recently
        used files and compacting when only fragmentation stands in the
        way. Zero-size files occupy no arena space."""
        if size == 0:
            return 0
        while True:
            try:
                return self._arena.allocate(size)
            except NoSpaceError:
                if self._arena.free_units >= size:
                    # Enough total space, just fragmented: compact.
                    self.compact()
                    continue
                if not self._evict_one():
                    raise

    def _evict_one(self) -> bool:
        """Evict the least desirable non-busy file; False if none."""
        candidates = [
            r for r in self._rnodes.values() if not r.busy and r.pins == 0
        ]
        if not candidates:
            return False
        if self.policy == "lru":
            victim = min(candidates, key=lambda r: r.age)
        else:
            victim = min(candidates, key=lambda r: r.inserted)
        self._release(victim)
        self.stats.evictions += 1
        self.stats.evicted_bytes += victim.size
        if self.on_evict is not None:
            self.on_evict(victim.inode_number)
        return True

    def compact(self) -> int:
        """Slide every cached file toward address zero, coalescing all
        free space into one hole. Returns the number of files moved."""
        rnodes = sorted(
            (r for r in self._rnodes.values() if r.size > 0),
            key=lambda r: r.addr,
        )
        gauges = self._arena.detach_gauges()
        self._arena = ExtentFreeList(0, self.capacity, strategy="first_fit")
        self._arena.attach_gauges(*gauges)
        moved = 0
        cursor = 0
        for rnode in rnodes:
            if rnode.addr != cursor:
                rnode.addr = cursor
                moved += 1
            self._arena.allocate_at(cursor, rnode.size)
            cursor += rnode.size
        self.stats.compactions += 1
        return moved

    # --------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Arena bookkeeping must agree with the rnodes: no overlaps, no
        leaks, indices consistent."""
        self._arena.check_invariants()
        placed = sorted(
            (r for r in self._rnodes.values() if r.size > 0),
            key=lambda r: r.addr,
        )
        prev_end = 0
        total = 0
        for rnode in placed:
            if rnode.addr < prev_end:
                raise ConsistencyError("cached files overlap in the arena")
            if self._arena.is_free(rnode.addr, rnode.size):
                raise ConsistencyError("rnode extent is marked free")
            prev_end = rnode.addr + rnode.size
            total += rnode.size
        if total != self._arena.used_units:
            raise ConsistencyError(
                f"arena accounting leak: rnodes hold {total} bytes, "
                f"arena says {self._arena.used_units}"
            )
        for inode_number, rnode in self._by_inode.items():
            if rnode.inode_number != inode_number:
                raise ConsistencyError("by-inode map inconsistent")
            if self._rnodes.get(rnode.number) is not rnode:
                raise ConsistencyError("rnode slot map inconsistent")
