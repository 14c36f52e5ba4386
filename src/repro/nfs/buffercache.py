"""The NFS server's buffer cache (§4: "equipped with a 3 Mbyte buffer
cache").

Block-granularity LRU over the filesystem's logical blocks. Unlike the
Bullet cache this caches *blocks*, not files — the traditional design
the paper argues against. Writes can be write-through (synchronous, the
SunOS NFS data/metadata path) or write-back (delayed, used for
allocation bitmaps), with an explicit :meth:`sync`. Only what takes
disk time is a process: a hit (:meth:`~BufferCache.probe`) and a
delayed write are plain calls.

A seeded **churn** process models the paper's environment: the NFS
server was a shared departmental machine on a "normally loaded
Ethernet", so other clients' traffic steadily recycles cache blocks.
This is what produces claim C4 (1 MB transfers slower than 64 KB ones):
a long transfer's footprint gets partially evicted while it streams.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Optional, Sequence

from ..disk import VirtualDisk
from ..obs import MetricsRegistry, RegistryStats
from ..sim import Environment, SeededStream

__all__ = ["BufferCache", "BufferCacheStats"]


class BufferCacheStats(RegistryStats):
    """Buffer-cache accounting, backed by the observability registry
    (``repro_buffercache_<field>_total{cache=...}``)."""

    _PREFIX = "repro_buffercache"
    _COUNTER_FIELDS = (
        "hits",
        "misses",
        "write_throughs",
        "delayed_writes",
        "evictions",
        "churned",
    )


class BufferCache:
    """An LRU block cache in front of one disk."""

    def __init__(self, env: Environment, disk: VirtualDisk,
                 capacity_bytes: int, fs_block_size: int,
                 metrics: Optional[MetricsRegistry] = None,
                 owner: str = "nfs"):
        if fs_block_size % disk.block_size != 0:
            raise ValueError(
                f"fs block size {fs_block_size} not a multiple of the disk "
                f"sector size {disk.block_size}"
            )
        self.env = env
        self.disk = disk
        self.fs_block_size = fs_block_size
        self.capacity_blocks = max(capacity_bytes // fs_block_size, 1)
        self.sectors_per_block = fs_block_size // disk.block_size
        self.stats = BufferCacheStats(metrics, cache=owner)
        self._blocks: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()

    # ------------------------------------------------------------- reads
    #
    # A read is two steps so that a hit costs no generator: ``probe``
    # answers a hit in place, and only a miss runs the ``load`` process
    # (``cache.probe(fbn) or (yield from cache.load(fbn))``; a block is
    # never empty, so ``or`` falls through on a miss alone).

    def probe(self, fbn: int) -> Optional[bytes]:
        """The cached block's bytes, counted as a hit and made the most
        recently used; None on a miss (not counted: :meth:`load` does)."""
        cached = self._blocks.get(fbn)
        if cached is not None:
            self._blocks.move_to_end(fbn)
            self.stats.hits.inc()
        return cached

    def load(self, fbn: int):
        """Process: a miss — read the block from disk and admit it."""
        self.stats.misses.inc()
        data = yield self.disk.read(fbn * self.sectors_per_block,
                                    self.sectors_per_block)
        self._admit(fbn, data, dirty=False)
        return data

    # ------------------------------------------------------------- writes

    def write_block(self, fbn: int, data: bytes):
        """Process: install ``data`` as the block's contents and block
        until the disk has it (write-through, the NFS v2 stable-write
        path)."""
        if len(data) != self.fs_block_size:
            data = data + bytes(self.fs_block_size - len(data))
        self._admit(fbn, bytes(data), dirty=False)
        self.stats.write_throughs.inc()
        yield self.disk.write(fbn * self.sectors_per_block, data)

    def write_delayed(self, first_fbn: int, blocks: Sequence[bytes]) -> None:
        """Install ``blocks`` (each one whole block of bytes) as the
        contents of consecutive logical blocks from ``first_fbn``, in
        order, and leave them dirty for a later :meth:`sync` — no disk
        time now."""
        for fbn, data in enumerate(blocks, first_fbn):
            self._admit(fbn, data, dirty=True)
        self.stats.delayed_writes.inc(len(blocks))

    def sync(self):
        """Process: flush every dirty block to disk."""
        dirty = sorted(self._dirty)
        self._dirty.clear()
        for fbn in dirty:
            data = self._blocks.get(fbn)
            if data is not None:
                yield self.disk.write(fbn * self.sectors_per_block, data)

    # ---------------------------------------------------------- internals

    def _admit(self, fbn: int, data: bytes, dirty: bool) -> None:
        if fbn in self._blocks:
            self._blocks[fbn] = data
            self._blocks.move_to_end(fbn)
        else:
            while len(self._blocks) >= self.capacity_blocks:
                self._evict_oldest()
            self._blocks[fbn] = data
        if dirty:
            self._dirty.add(fbn)

    def _evict_oldest(self) -> None:
        """Evict the LRU block, dirty or not. A dirty victim leaves the
        dirty set unwritten, so no later :meth:`sync` writes it. Only
        allocation bitmaps are left dirty for long (every other write
        is write-through), so the disk's bitmaps are a hint that
        :meth:`~repro.nfs.ffs.FFS.mount` does not trust."""
        fbn, _data = self._blocks.popitem(last=False)
        self._dirty.discard(fbn)
        self.stats.evictions.inc()

    def contains(self, fbn: int) -> bool:
        return fbn in self._blocks

    @property
    def cached_blocks(self) -> int:
        return len(self._blocks)

    # -------------------------------------------------------- background

    def churn_process(self, stream: SeededStream, churn_per_second: float):
        """Process: evict random cached blocks at the given mean rate —
        the competing traffic on a shared server. Deterministic via the
        seeded stream."""
        if churn_per_second <= 0:
            return
        while True:
            yield self.env.timeout(stream.expovariate(churn_per_second))
            if not self._blocks:
                continue
            index = stream.randint(0, len(self._blocks) - 1)
            victim = next(islice(self._blocks, index, None))
            if victim in self._dirty:
                continue  # never lose real dirty data to churn
            del self._blocks[victim]
            self.stats.churned.inc()
