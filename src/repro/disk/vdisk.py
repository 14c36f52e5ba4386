"""The virtual disk: a block device with realistic timing.

Functionally it is a sparse extent store: every write is kept as the
one ``bytes`` object it arrived as (whole files, inode blocks, NFS
blocks alike), never-written and all-zero regions are holes that cost
no host memory and read as zeros. Temporally it is a single arm served
by a scheduling discipline: each access costs seek + rotation +
transfer according to :class:`~repro.disk.geometry.DiskGeometry`, and
concurrent requests queue.

Two access planes:

* **Timed** — :meth:`read` / :meth:`write` return events; yield them
  from a simulation process. This is what servers use.
* **Raw** — :meth:`read_raw` / :meth:`write_raw` move data instantly
  with no simulated cost. Used for formatting (mkfs), test setup, and
  whole-disk recovery copies whose time is charged explicitly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ConsistencyError, DiskIOError
from ..obs import MetricsRegistry, RegistryStats
from ..profiles import DiskProfile
from ..sim import Environment, Event, Store, Tracer
from .geometry import DiskGeometry
from .scheduler import make_queue

__all__ = ["VirtualDisk", "DiskStats", "pad_to_block"]


def pad_to_block(data, block_size: int) -> bytes:
    """``data`` as immutable bytes, zero-padded to whole blocks.

    This is the one place a caller's buffer is copied on its way to the
    platter: a mutable buffer is snapshotted and a short tail padded,
    while ``bytes`` of whole blocks come back as the *same object* — so
    padding a file once and handing the result to every replica stores
    one object, not one copy per disk."""
    return bytes(data).ljust(-(-len(data) // block_size) * block_size, b"\0")


class DiskStats(RegistryStats):
    """Operation counters for one disk, backed by the observability
    registry (``repro_disk_<field>_total{disk=...}``)."""

    _PREFIX = "repro_disk"
    _COUNTER_FIELDS = (
        "reads",
        "writes",
        "blocks_read",
        "blocks_written",
        "busy_time",
        "seeks",
    )


@dataclass
class _DiskRequest:
    kind: str                     # "read" or "write"
    start_block: int
    nblocks: int
    data: Optional[bytes]
    completion: Event
    cylinder: int = 0             # of the first block
    last_cylinder: int = 0        # of the last block (where the arm ends)


class VirtualDisk:
    """One simulated disk drive."""

    def __init__(
        self,
        env: Environment,
        profile: DiskProfile,
        name: str = "disk0",
        discipline: str = "fcfs",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.env = env
        self.profile = profile
        self.name = name
        self.geometry = DiskGeometry(profile)
        self.block_size = profile.block_size
        self.total_blocks = self.geometry.total_blocks
        self.stats = DiskStats(metrics, disk=name)
        # Direct counter handles for the service loop (the facade costs
        # a getattr+setattr per bump).
        self._c_reads = self.stats.handle("reads")
        self._c_writes = self.stats.handle("writes")
        self._c_blocks_read = self.stats.handle("blocks_read")
        self._c_blocks_written = self.stats.handle("blocks_written")
        self._c_busy_time = self.stats.handle("busy_time")
        self._c_seeks = self.stats.handle("seeks")
        self._tracer = tracer
        # The platter: non-overlapping extents of whole blocks, keyed by
        # start block, plus the sorted starts for bisect. Only bytes
        # objects are ever stored, so an extent may be shared with the
        # other replica, the RAM cache and a reply in flight.
        self._extents: dict[int, bytes] = {}
        self._starts: list[int] = []
        self._zero_block = bytes(profile.block_size)
        self._queue = make_queue(discipline)
        self._wakeups: Store = Store(env)
        self._current_cylinder = 0
        self._failed = False
        # Fault-plane injection seams (see repro.faults): a service-time
        # multiplier, a set of blocks that return media errors, and
        # completion hooks that fire after each successful operation.
        self._slowdown = 1.0
        self._flaky_blocks: set[int] = set()
        self._op_hooks: list[Callable[[str], None]] = []
        self._server = env.process(self._serve())

    # ------------------------------------------------------------ state

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def fail(self, reason: str = "injected fault") -> None:
        """Mark the disk dead. Pending and future requests fail with
        :class:`DiskIOError`."""
        if self._failed:
            return
        self._failed = True
        self._trace("fault", f"{self.name} failed: {reason}")
        # Drain the queue, failing every pending request.
        while True:
            req = self._queue.pop(self._current_cylinder)
            if req is None:
                break
            req.completion.fail(DiskIOError(f"{self.name} is dead ({reason})"))

    def repair(self) -> None:
        """Bring a failed disk back (blank state is preserved as-is;
        callers decide whether a recovery copy is needed). Repair models
        a drive swap, so injected media faults and degradation clear."""
        if not self._failed:
            return
        self._failed = False
        self._slowdown = 1.0
        self._flaky_blocks.clear()
        self._trace("fault", f"{self.name} repaired")

    # --------------------------------------------- fault injection seams

    def set_slowdown(self, factor: float) -> None:
        """Multiply every access time by ``factor`` (a degraded drive
        retrying internally); ``1.0`` restores nominal speed."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0, got {factor}")
        self._slowdown = factor

    def mark_flaky(self, start_block: int, nblocks: int) -> None:
        """Make ``nblocks`` blocks from ``start_block`` return media
        errors on any timed access that touches them."""
        self.geometry.check_extent(start_block, nblocks)
        self._flaky_blocks.update(range(start_block, start_block + nblocks))

    def clear_flaky(self, start_block: int, nblocks: int) -> None:
        """Heal a previously marked flaky extent."""
        for block in range(start_block, start_block + nblocks):
            self._flaky_blocks.discard(block)

    def add_op_hook(self, hook: Callable[[str], None]) -> None:
        """Register ``hook(kind)`` to run synchronously after each
        *successful* operation completes (kind is "read" or "write").
        This is how write-count faults fire exactly, without polling."""
        self._op_hooks.append(hook)

    def remove_op_hook(self, hook: Callable[[str], None]) -> None:
        """Deregister a completion hook (missing hooks are ignored)."""
        if hook in self._op_hooks:
            self._op_hooks.remove(hook)

    def _flaky_extent(self, start_block: int, nblocks: int) -> bool:
        if not self._flaky_blocks:
            return False
        return any(
            start_block + i in self._flaky_blocks for i in range(nblocks)
        )

    # ------------------------------------------------------- timed plane

    def read(self, start_block: int, nblocks: int) -> Event:
        """Timed read of ``nblocks`` consecutive blocks; the returned
        event fires with the bytes."""
        return self._submit("read", start_block, nblocks, None)

    def write(self, start_block: int, data: bytes) -> Event:
        """Timed write of ``data`` (padded to whole blocks) starting at
        ``start_block``; the event fires with None when durable."""
        if not data:
            raise ValueError("write of zero bytes")
        # The snapshot: whatever the caller does to its buffer after this
        # line, the platter gets the bytes as they are now.
        data = pad_to_block(data, self.block_size)
        return self._submit("write", start_block,
                            len(data) // self.block_size, data)

    def _submit(self, kind: str, start_block: int, nblocks: int,
                data: Optional[bytes]) -> Event:
        completion = Event(self.env)
        if self._failed:
            completion.fail(DiskIOError(f"{self.name} is dead"))
            return completion
        # The one range check of the operation: the cylinders, the
        # access time and the raw plane below all trust it.
        self.geometry.check_extent(start_block, nblocks)
        per_cyl = self.geometry.blocks_per_cylinder
        self._queue.push(_DiskRequest(
            kind=kind,
            start_block=start_block,
            nblocks=nblocks,
            data=data,
            completion=completion,
            cylinder=start_block // per_cyl,
            last_cylinder=(start_block + max(nblocks - 1, 0)) // per_cyl,
        ))
        self._wakeups.put(None)
        return completion

    def _serve(self):
        """The arm: one request at a time, in scheduler order."""
        while True:
            yield self._wakeups.get()
            req = self._queue.pop(self._current_cylinder)
            if req is None:
                continue  # request was drained by fail()
            duration = self.geometry.span_time(
                self._current_cylinder, req.cylinder, req.last_cylinder,
                req.nblocks
            ) * self._slowdown
            yield self.env.timeout(duration)
            self._complete(req, duration)

    def _complete(self, req: _DiskRequest, duration: float) -> None:
        """The arm finished ``req`` after ``duration`` seconds."""
        start_block, nblocks = req.start_block, req.nblocks
        if req.cylinder != self._current_cylinder:
            self._c_seeks.inc(1)
        self._current_cylinder = req.last_cylinder
        self._c_busy_time.inc(duration)
        if self._failed:
            req.completion.fail(DiskIOError(f"{self.name} died mid-operation"))
            return
        if self._flaky_extent(start_block, nblocks):
            self._trace("fault", f"{self.name} media error",
                        block=start_block, n=nblocks)
            req.completion.fail(DiskIOError(
                f"{self.name} unrecoverable media error in blocks "
                f"[{start_block}, {start_block + nblocks})"
            ))
            return
        if req.kind == "read":
            payload = self._load(start_block, nblocks)
            self._c_reads.inc(1)
            self._c_blocks_read.inc(nblocks)
            if self._tracer is not None:
                self._trace("disk", f"{self.name} read",
                            block=start_block, n=nblocks)
            req.completion.succeed(payload)
        else:
            if req.data is None:
                raise ConsistencyError("write request carries no data")
            self._store(start_block, req.data)
            self._c_writes.inc(1)
            self._c_blocks_written.inc(nblocks)
            if self._tracer is not None:
                self._trace("disk", f"{self.name} write",
                            block=start_block, n=nblocks)
            req.completion.succeed(None)
        # Completion hooks run after the op is accounted, so a
        # write-count fault armed for the Nth write kills the disk
        # with the Nth write durable and nothing after it.
        for hook in list(self._op_hooks):
            hook(req.kind)

    # --------------------------------------------------------- raw plane

    def read_raw(self, start_block: int, nblocks: int) -> bytes:
        """Instant, cost-free read (setup/recovery plane)."""
        self.geometry.check_extent(start_block, nblocks)
        return self._load(start_block, nblocks)

    def write_raw(self, start_block: int, data: bytes) -> None:
        """Instant, cost-free write (setup/recovery plane)."""
        data = pad_to_block(data, self.block_size)
        self.geometry.check_extent(start_block, len(data) // self.block_size)
        if data:
            self._store(start_block, data)

    def punch_holes(self, start_block: int, nblocks: int) -> None:
        """Turn the stored all-zero blocks of the range back into holes.
        Reads cannot tell the difference; a whole-disk recovery copy
        uses it so the target stays as sparse as its source."""
        self.geometry.check_extent(start_block, nblocks)
        bs, zero = self.block_size, self._zero_block
        end_block = start_block + nblocks
        for start, data in self._overlapping(start_block, end_block):
            first = max(start_block - start, 0)
            last = min(end_block - start, len(data) // bs)
            if data.find(zero, first * bs, last * bs) < 0:
                continue        # dense data: no block's worth of zeros
            run = None          # first block of the zero run being walked
            for block in range(first, last + 1):
                if block < last and data.startswith(zero, block * bs):
                    if run is None:
                        run = block
                elif run is not None:
                    self._store(start + run, bytes((block - run) * bs))
                    run = None

    # ------------------------------------------------------ the extent map
    #
    # The methods below are the only code that knows how the platter is
    # represented. Their callers have range-checked the extent.

    def used_host_bytes(self) -> int:
        """Host memory consumed by the sparse store (for tests)."""
        return sum(map(len, self._extents.values()))

    def check_invariants(self) -> None:
        """The map must be sorted, non-overlapping, on the disk, and
        made of non-empty immutable whole-block extents."""
        if self._starts != sorted(self._extents):
            raise ConsistencyError("extent starts out of step with the map")
        end = 0
        for start in self._starts:
            data = self._extents[start]
            if (type(data) is not bytes or not data
                    or len(data) % self.block_size):
                raise ConsistencyError(
                    f"extent at block {start} is not whole blocks of bytes")
            if start < end:
                raise ConsistencyError(f"extent at block {start} overlaps "
                                       "its predecessor")
            end = start + len(data) // self.block_size
        if end > self.total_blocks:
            raise ConsistencyError("an extent runs off the end of the disk")

    def _overlapping(self, start_block: int, end_block: int) -> list:
        """The stored ``(start, data)`` extents that intersect
        ``[start_block, end_block)``, in address order."""
        starts, extents = self._starts, self._extents
        lo = bisect_right(starts, start_block) - 1
        if lo < 0:
            lo = 0
        elif (starts[lo] + len(extents[starts[lo]]) // self.block_size
                <= start_block):
            lo += 1                 # the predecessor ends before the range
        return [(s, extents[s])
                for s in starts[lo:bisect_left(starts, end_block, lo)]]

    def _load(self, start_block: int, nblocks: int) -> bytes:
        """The bytes of a block range; holes read as zeros. A range that
        is exactly one stored extent comes back as that very object."""
        bs = self.block_size
        data = self._extents.get(start_block)
        if data is not None and len(data) == nblocks * bs:
            return data
        end_block = start_block + nblocks
        parts = []
        at = start_block
        for start, data in self._overlapping(start_block, end_block):
            if start > at:
                parts.append(bytes((start - at) * bs))
                at = start
            upto = min(start + len(data) // bs, end_block)
            parts.append(data[(at - start) * bs:(upto - start) * bs])
            at = upto
        if at < end_block:
            parts.append(bytes((end_block - at) * bs))
        return b"".join(parts)

    def _store(self, start_block: int, data: bytes) -> None:
        """Make ``data`` (whole blocks, immutable) the contents from
        ``start_block``. An all-zero buffer stores nothing — over data
        it punches a hole — so zeros never cost host memory; the
        first-block test keeps file payloads from paying for the scan."""
        bs = self.block_size
        starts, extents = self._starts, self._extents
        hole = data.startswith(self._zero_block) and data == bytes(len(data))
        old = extents.get(start_block)
        if old is not None and len(old) == len(data) and not hole:
            extents[start_block] = data     # exact rewrite: one assignment
            return
        end_block = start_block + len(data) // bs
        covered = self._overlapping(start_block, end_block)
        # What stays: the parts of the first and last overlapped extents
        # that stick out of the written range, and the new data between.
        kept = []
        if covered and covered[0][0] < start_block:
            first, head = covered[0]
            kept.append((first, head[:(start_block - first) * bs]))
        if not hole:
            kept.append((start_block, data))
        if covered:
            last, tail = covered[-1]
            if last + len(tail) // bs > end_block:
                kept.append((end_block, tail[(end_block - last) * bs:]))
        for start, _ in covered:
            del extents[start]
        at = bisect_left(starts, covered[0][0] if covered else start_block)
        starts[at:at + len(covered)] = [start for start, _ in kept]
        extents.update(kept)

    # ------------------------------------------------------------ helpers

    def _trace(self, category: str, message: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit(category, message, **fields)
