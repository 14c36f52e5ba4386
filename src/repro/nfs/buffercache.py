"""The NFS server's buffer cache (§4: "equipped with a 3 Mbyte buffer
cache").

Block-granularity LRU over the filesystem's logical blocks. Unlike the
Bullet cache this caches *blocks*, not files — the traditional design
the paper argues against. Writes can be write-through (synchronous, the
SunOS NFS data/metadata path) or write-back (delayed, used for
allocation bitmaps), with an explicit :meth:`sync`.

A seeded **churn** process models the paper's environment: the NFS
server was a shared departmental machine on a "normally loaded
Ethernet", so other clients' traffic steadily recycles cache blocks.
This is what produces claim C4 (1 MB transfers slower than 64 KB ones):
a long transfer's footprint gets partially evicted while it streams.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

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
        self._s_hits = self.stats.handle("hits")
        self._s_misses = self.stats.handle("misses")
        self._s_write_throughs = self.stats.handle("write_throughs")
        self._s_delayed_writes = self.stats.handle("delayed_writes")
        self._blocks: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()

    # ------------------------------------------------------------- reads

    def read_block(self, fbn: int):
        """Process: the logical block's bytes; disk read on a miss."""
        cached = self._blocks.get(fbn)
        if cached is not None:
            self._blocks.move_to_end(fbn)
            self._s_hits.inc(1)
            yield from ()
            return cached
        self._s_misses.inc(1)
        data = yield self.disk.read(fbn * self.sectors_per_block,
                                    self.sectors_per_block)
        self._admit(fbn, data, dirty=False)
        return data

    # ------------------------------------------------------------- writes

    def write_block(self, fbn: int, data: bytes, sync: bool = True):
        """Process: install ``data`` as the block's contents.

        ``sync=True`` (write-through) blocks until the disk has it —
        the NFS v2 stable-write path. ``sync=False`` leaves the block
        dirty for a later :meth:`sync`.
        """
        if len(data) != self.fs_block_size:
            data = data + bytes(self.fs_block_size - len(data))
        self._admit(fbn, bytes(data), dirty=not sync)
        if sync:
            self._s_write_throughs.inc(1)
            yield self.disk.write(fbn * self.sectors_per_block, data)
        else:
            self._s_delayed_writes.inc(1)
            yield from ()

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
                self._evict_oldest_clean()
            self._blocks[fbn] = data
        if dirty:
            self._dirty.add(fbn)

    def _evict_oldest_clean(self) -> None:
        """Evict the LRU block; dirty victims are dropped from the dirty
        set too (their contents are still written by a later sync of the
        owning operation — the NFS server syncs before replying, so a
        dirty victim here can only be an allocation bitmap, which the
        filesystem rewrites in full on sync)."""
        fbn, _data = self._blocks.popitem(last=False)
        self._dirty.discard(fbn)
        self.stats.evictions += 1

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
            keys = list(self._blocks.keys())
            victim = keys[stream.randint(0, len(keys) - 1)]
            if victim in self._dirty:
                continue  # never lose real dirty data to churn
            del self._blocks[victim]
            self.stats.churned += 1
