"""The NFS server's buffer cache (§4: "equipped with a 3 Mbyte buffer
cache").

Block-granularity LRU over the filesystem's logical blocks. Unlike the
Bullet cache this caches *blocks*, not files — the traditional design
the paper argues against. Writes can be write-through (synchronous, the
SunOS NFS data/metadata path) or write-back (delayed, used for
allocation bitmaps), with an explicit :meth:`sync`. Only what takes
disk time is a process: a hit (:meth:`~BufferCache.probe`) and a
delayed write are plain calls.

A seeded **churn** daemon models the paper's environment: the NFS
server was a shared departmental machine on a "normally loaded
Ethernet", so other clients' traffic steadily recycles cache blocks.
This is what produces claim C4 (1 MB transfers slower than 64 KB ones):
a long transfer's footprint gets partially evicted while it streams.

A cache belongs to one incarnation of its server, which ``boot()``
hands it at construction: every disk write it makes goes through that
incarnation's :meth:`~repro.net.ServiceEndpoint.write`, so a handler
that outlives the incarnation writes nothing, and the churn daemon
(:meth:`BufferCache.start_churn`) ends with it. On the fast kernel the
daemon is a virtual source, off the heap.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import TYPE_CHECKING, Optional, Sequence

from ..disk import VirtualDisk
from ..obs import MetricsRegistry, RegistryStats
from ..sim import SeededStream

if TYPE_CHECKING:
    from ..net import ServiceEndpoint

__all__ = ["BufferCache", "BufferCacheStats"]

_INF = float("inf")


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
    """An LRU block cache in front of one disk, for one incarnation."""

    def __init__(self, incarnation: "ServiceEndpoint", disk: VirtualDisk,
                 capacity_bytes: int, fs_block_size: int,
                 metrics: Optional[MetricsRegistry] = None,
                 owner: str = "nfs"):
        if fs_block_size % disk.block_size != 0:
            raise ValueError(
                f"fs block size {fs_block_size} not a multiple of the disk "
                f"sector size {disk.block_size}"
            )
        self.env = incarnation.env
        self.incarnation = incarnation
        self.disk = disk
        self.fs_block_size = fs_block_size
        self.capacity_blocks = max(capacity_bytes // fs_block_size, 1)
        self.sectors_per_block = fs_block_size // disk.block_size
        self.stats = BufferCacheStats(metrics, cache=owner)
        self._blocks: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()
        # The churn daemon's model, picked once (see _Churn).
        self._reference = self.env.is_reference

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
        yield self.incarnation.write(
            self.disk, fbn * self.sectors_per_block, data)

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
                yield self.incarnation.write(
                    self.disk, fbn * self.sectors_per_block, data)

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

    def start_churn(self, stream: SeededStream,
                    churn_per_second: float) -> None:
        """Start the competing traffic of a shared server: evict random
        cached blocks at the given mean rate, deterministically from the
        seeded stream, until the cache's incarnation crashes. No
        traffic (a rate of zero) starts nothing."""
        if churn_per_second > 0:
            _Churn(self, stream, churn_per_second)


class _Churn:
    """The churn daemon of one incarnation. It is modelled twice, and a
    daemon uses one model for life, picked by the kernel switch as it
    stood when the cache was built (DESIGN.md §10), as ``Ethernet``
    picks its medium. On the reference kernel the daemon is a member
    process of the incarnation, which a crash interrupts, and each tick
    is a timeout on the heap. On the fast kernel it is a *quiet* virtual
    source (``Environment.add_source``) with one pending step, which
    resumes nobody: a held event collapses past it. Both models perform
    a step with the same method, :meth:`_step`."""

    #: No step of the daemon's resumes a process.
    wake = _INF

    def __init__(self, cache: BufferCache, stream: SeededStream,
                 rate: float):
        self._cache = cache
        self._stream = stream
        self._rate = rate
        # The first step is the start-up: it draws the first gap.
        self._started = False
        env = cache.env
        if cache._reference:
            cache.incarnation.spawn(self._process())
            return
        self._seq = env.add_source(self)
        # The start-up stands where the process's start-up event would.
        self.guard = env.now
        self._c = env.events_scheduled
        self._s = next(self._seq)
        env.reguard()

    def _step(self) -> float:
        """Perform the pending step — the start-up, or a tick: a random
        cached block leaves, unless it is dirty (churn never loses real
        dirty data) — and draw the gap to the next tick."""
        if self._started:
            blocks = self._cache._blocks
            if blocks:
                index = self._stream.randint(0, len(blocks) - 1)
                victim = next(islice(blocks, index, None))
                if victim not in self._cache._dirty:
                    del blocks[victim]
                    self._cache.stats.churned.inc()
        else:
            self._started = True
        return self._stream.expovariate(self._rate)

    def _process(self):
        """The reference kernel's daemon: each step a timeout."""
        timeout = self._cache.env.timeout
        while True:
            yield timeout(self._step())

    # ------------------------------------------ the fast kernel's source

    @property
    def head(self) -> tuple:
        """``(when, c, seq)`` of the pending step: ``c`` the ticket
        counter read where the reference pushes the step's event."""
        return (self.guard, self._c, self._s)

    def advance(self, bound: tuple) -> bool:
        """The kernel's call: perform, in order, the steps that sort
        before the ``(when, c, seq)`` triple ``bound`` — the start-up,
        then tick after tick, each making the next. A step made here
        reads the same ``c``: nothing real is pushed in between. The
        step of a crashed incarnation's daemon is the reference's
        timeout that outlived the interrupted process: it evicts nothing
        and resumes nobody, it only moves the clock, and the source
        leaves the kernel."""
        limit, c_limit, seq_limit = bound
        when = self.guard
        if when > limit or (when == limit
                            and (self._c, self._s) >= (c_limit, seq_limit)):
            return False
        env = self._cache.env
        if self._cache.incarnation.down:
            self.guard = _INF
            env.remove_source(self)
            env.finish_inline(env.event(), None, when)
            return False
        c = env.events_scheduled
        seq = self._seq
        while True:
            when += self._step()
            s = next(seq)
            if when > limit or (when == limit
                                and (c, s) >= (c_limit, seq_limit)):
                break
        self.guard = when
        self._c = c
        self._s = s
        env.reguard()
        return False
