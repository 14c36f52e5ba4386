"""Mirrored disk sets (§3 of the paper).

"In our hardware configuration we have two disks that we use as
identical replicas. One of the disks is the main disk on which the file
server reads. Disk writes are performed on both disks. If the main disk
fails, the file server can proceed uninterruptedly by using the other
disk. Recovery is simply done by copying the complete disk."

:class:`MirroredDiskSet` implements exactly that: reads go to the
current primary (with automatic failover), writes fan out to every live
replica, and the caller chooses how many completed replicas to wait for
— which is the mechanism behind the P-FACTOR.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import (
    BadRequestError,
    ConsistencyError,
    DiskIOError,
    ServerDownError,
)
from ..sim import CountOf, Environment, Event, Interrupt
from .vdisk import VirtualDisk, pad_to_block

__all__ = ["MirroredDiskSet"]


class MirroredDiskSet:
    """A set of identical disk replicas with one read primary."""

    def __init__(self, env: Environment, disks: Sequence[VirtualDisk]):
        if not disks:
            raise ValueError("a mirrored set needs at least one disk")
        self.env = env
        self.disks = list(disks)
        # While a recovery copy is streaming, every mirrored write is
        # also logged here as (start_block, nblocks, write events) so
        # the recovery can re-copy extents the streaming pass may have
        # clobbered with a stale snapshot. None = no recovery active.
        self._resync_dirty: Optional[list] = None

    # ------------------------------------------------------------- state

    @property
    def primary(self) -> VirtualDisk:
        """The disk reads are served from: the first live replica.

        Raises :class:`ServerDownError` when every replica is dead —
        the server as a whole is then down.
        """
        for disk in self.disks:
            if not disk.failed:
                return disk
        raise ServerDownError("all disk replicas have failed")

    @property
    def live_disks(self) -> list[VirtualDisk]:
        return [d for d in self.disks if not d.failed]

    @property
    def replica_count(self) -> int:
        """Number of replicas able to take a write right now."""
        return len(self.live_disks)

    @property
    def block_size(self) -> int:
        return self.disks[0].block_size

    def check_p_factor(self, p_factor: int) -> None:
        """Validate a requested paranoia factor against the set (§2.2):
        "If the P-FACTOR is N, ... this requires the file server to
        have at least N disks available for replication."
        """
        if p_factor < 0:
            raise BadRequestError(f"p-factor must be >= 0, got {p_factor}")
        if p_factor > len(self.disks):
            raise BadRequestError(
                f"p-factor {p_factor} exceeds the server's {len(self.disks)} disks"
            )
        if p_factor > self.replica_count:
            raise ServerDownError(
                f"p-factor {p_factor} requires more live disks than the "
                f"{self.replica_count} currently available"
            )

    # -------------------------------------------------------------- I/O

    def read(self, start_block: int, nblocks: int) -> Event:
        """Timed read from the primary replica."""
        return self.primary.read(start_block, nblocks)

    def read_with_failover(self, start_block: int, nblocks: int):
        """A *process* (yield ``env.process(...)``) that reads from the
        primary and transparently retries on the next replica if the
        primary fails — the paper's "proceed uninterruptedly".

        Each replica is tried at most once per call: a persistent media
        error (an injected flaky extent) on a still-live disk escalates
        after every replica has had its chance, instead of hammering the
        same arm forever.
        """
        last: Optional[DiskIOError] = None
        tried: list[VirtualDisk] = []
        while True:
            disk = None
            for candidate in self.disks:
                if not candidate.failed and candidate not in tried:
                    disk = candidate
                    break
            if disk is None:
                break
            tried.append(disk)
            try:
                data = yield disk.read(start_block, nblocks)
                return data
            except DiskIOError as exc:
                last = exc
                continue
        if not self.live_disks:
            raise ServerDownError("all disk replicas have failed")
        if last is None:
            raise ConsistencyError("failover loop ran out of replicas "
                                   "without an error")
        raise last

    def write(self, start_block: int, data: bytes) -> Event:
        """Write ``data`` to every live replica; the returned event fires
        once all of them have it durably (a quorum below all is
        :meth:`write_ordered`'s ``need``)."""
        live = self.live_disks
        if not live:
            failed = Event(self.env)
            failed.fail(ServerDownError("all disk replicas have failed"))
            return failed
        # Snapshot and pad once: every replica stores this one object.
        data = pad_to_block(data, self.block_size)
        writes = [disk.write(start_block, data) for disk in live]
        self._resync_note(start_block, len(data), writes)
        return CountOf(self.env, writes, need=len(writes))

    def write_ordered(self, extents: Sequence[tuple[int, bytes]],
                      need: int) -> tuple[Event, list[Event]]:
        """Write ``(start_block, data)`` extents to every live replica,
        each replica taking them strictly in order: one is durable
        before the next starts, so a crash leaves a prefix (CREATE's
        data extent, then the inode block that points at it — never an
        inode pointing at garbage).

        Returns ``(durable, writes)``: ``durable`` fires once ``need``
        replicas hold every extent (at once for ``need == 0``), and
        ``writes`` are the per-replica write processes, so the caller
        can watch the stragglers that keep writing in the background
        past the quorum.
        """
        # Snapshot and pad once: every replica stores these objects.
        extents = [(start_block, pad_to_block(data, self.block_size))
                   for start_block, data in extents]
        writes = [self.env.process(self._write_extents(disk, extents))
                  for disk in self.live_disks]
        for start_block, data in extents:
            self._resync_note(start_block, len(data), writes)
        return CountOf(self.env, writes, need=min(need, len(writes))), writes

    @staticmethod
    def _write_extents(disk: VirtualDisk, extents):
        """Process: one replica's share of :meth:`write_ordered`; an
        interrupt (a crash) fails it with :class:`ServerDownError`."""
        try:
            for start_block, data in extents:
                yield disk.write(start_block, data)
        except Interrupt as stop:
            raise ServerDownError(f"replica write stopped: {stop.cause}")

    def _resync_note(self, start_block: int, nbytes: int,
                     events: Sequence[Event]) -> None:
        """Log a replica write so an active recovery re-copies its
        extent (no-op when no recovery is streaming). ``events`` must
        complete no earlier than the underlying disk writes (the
        per-disk write events, or the processes that issued them)."""
        if self._resync_dirty is not None and nbytes > 0:
            nblocks = -(-nbytes // self.block_size)
            self._resync_dirty.append((start_block, nblocks, list(events)))

    # --------------------------------------------------------- raw plane

    def write_raw(self, start_block: int, data: bytes) -> None:
        """Instant, cost-free write to every replica (setup plane)."""
        data = pad_to_block(data, self.block_size)
        for disk in self.disks:
            disk.write_raw(start_block, data)

    def read_raw(self, start_block: int, nblocks: int) -> bytes:
        """Instant, cost-free read from the primary (setup plane)."""
        return self.primary.read_raw(start_block, nblocks)

    # --------------------------------------------------------- recovery

    def recover(self, target: VirtualDisk):
        """A process performing whole-disk recovery onto ``target``:
        repair it, then copy every block from the primary, charging the
        full sequential read+write time of both arms.

        The paper: "Recovery is simply done by copying the complete
        disk." The copy streams in large extents so it runs at media
        rate rather than per-block cost. Holes copy as holes: the arms
        are charged for every block, but zeros are not kept on the
        target, so it ends as sparse as the source instead of holding
        its whole capacity in host memory.

        Recovery is *online*: ``repair()`` makes the target live
        immediately, so concurrent mirrored writes forward to it while
        the copy streams. Each chunk is a stale snapshot of the source
        taken one arm-rotation before it lands on the target, so a
        forwarded write can be clobbered by the copy (found by the
        model checker: a CREATE racing a recovery lost its inode-table
        update on the rebuilt disk, and a crash+restart then booted
        from the stale table). Every mirrored write issued while the
        copy is active is therefore logged, and after the streaming
        pass those extents are re-copied — waiting for the logged
        write to land first, so the re-read is fresh — until a round
        completes with no new writes.
        """
        source = self.primary
        if target is source:
            raise ValueError("cannot recover a disk from itself")
        if self._resync_dirty is not None:
            raise ConsistencyError("a recovery is already in progress")
        target.repair()
        total = min(source.total_blocks, target.total_blocks)
        extent = 2048  # blocks per copy chunk (1 MB at 512-byte blocks)
        self._resync_dirty = []
        try:
            copied = 0
            while copied < total:
                n = min(extent, total - copied)
                data = yield source.read(copied, n)
                yield target.write(copied, data)
                target.punch_holes(copied, n)
                copied += n
            while self._resync_dirty:
                dirty, self._resync_dirty = self._resync_dirty, []
                for start, nblocks, writes in dirty:
                    for event in writes:
                        if not event.triggered:
                            try:
                                yield event
                            except (DiskIOError, Interrupt, ServerDownError):
                                pass  # replica died / writer was killed
                    data = yield source.read(start, nblocks)
                    yield target.write(start, data)
        finally:
            self._resync_dirty = None
        if target not in self.disks:
            self.disks.append(target)
        return total
