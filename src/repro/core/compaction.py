"""Disk compaction — now online-safe, not only the "3 a.m. job" (§3).

"The disk fragmentation can also be relieved by compaction every morning
at say 3 am when the system is lightly loaded."

Compaction slides every live file toward the start of the data area, in
address order, leaving free space coalesced toward the end. Each move
is a timed read from the primary followed by replicated writes, so the
experiment A4 can measure what compaction actually costs.

Every move is **copy-then-flip** under the file's write lock:

1. reserve the destination's free blocks in the free map (so a
   concurrent CREATE cannot allocate them mid-move);
2. read the old extent and write it to the new extent on *every* live
   replica — the old extent and the old inode stay untouched;
3. only once the data is durable everywhere, flip ``inode.start_block``
   in RAM, write the updated inode block through to every replica, and
   return the vacated blocks to the free map.

Repointing the inode or freeing the old extent before the data lands
would let a READ miss follow ``start_block`` to unwritten blocks and a
concurrent CREATE reuse the old extent (the overlap §3's startup scan
exists to catch). Under the write lock and this ordering a reader
either sees the old extent, still intact, or waits for the new one.

A copy's destination must be *disjoint* from its source: sliding a
file left by less than its own length would overwrite the source in
place, and a mid-copy failure (disk death, injected media error) would
then leave the only copy torn. With disjoint extents the copy touches
no live data, so a hop can be abandoned at any point — the claim is
unwound and the old extent is still intact on every replica. A file
whose slide *would* overlap its source is bounced: copy-then-flip to a
disjoint staging extent elsewhere on the volume, then a second hop from
staging into place — twice the I/O, but every individual hop stays
abandonable. Files whose destination is partly occupied (a concurrent
CREATE won the blocks), whose bounce cannot find staging, or whose copy
errors mid-hop are skipped and left in place (or at staging) —
compaction is best-effort under load, correct always.

A pass works on the incarnation it starts in, like every handler
(DESIGN.md §5c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import (ConsistencyError, NoSpaceError, ReproError,
                      ServerDownError)
from .server import BulletIncarnation, BulletServer

__all__ = ["CompactionReport", "compact_disk"]


@dataclass
class CompactionReport:
    """What one compaction pass did."""

    fragmentation_before: float
    largest_hole_before: int
    files_moved: int = field(default=0, init=False)
    blocks_moved: int = field(default=0, init=False)
    files_skipped: int = field(default=0, init=False)
    duration: float = field(default=0.0, init=False)
    fragmentation_after: float = field(default=0.0, init=False)
    largest_hole_after: int = field(default=0, init=False)


def compact_disk(server: BulletServer):
    """Process: one full compaction pass over ``server``'s volume.

    Safe to run online, concurrently with a serving worker pool: each
    file moves under its write lock with copy-then-flip ordering. Raises
    :class:`ServerDownError` at its next step once the incarnation it
    started in has crashed.
    """
    env = server.env
    incarnation = server._require_booted()
    layout, disk_free = incarnation.layout, incarnation.disk_free
    report = CompactionReport(
        fragmentation_before=disk_free.external_fragmentation(),
        largest_hole_before=disk_free.largest_hole,
    )
    started = env.now
    live = sorted(incarnation.table.live_inodes(),
                  key=lambda item: item[1].start_block)
    cursor = layout.data_start
    for number, _snapshot_inode in live:
        with incarnation.locks.writing(number) as lock:
            yield lock.grant
            incarnation.require_up()  # DESIGN.md §5c
            # Revalidate under the lock: the file may have been deleted
            # (or its number reincarnated at a new address) while the
            # pass worked through earlier files.
            inode = incarnation.table.get(number)
            if inode.free:
                continue
            blocks = layout.blocks_for(inode.size)
            if blocks == 0:
                continue
            start = inode.start_block
            if start <= cursor:
                # Already at (or left of, via a concurrent CREATE into
                # an earlier hole) the watermark: leave it.
                cursor = max(cursor, start + blocks)
                continue
            try:
                moved = yield from _relocate(incarnation, server.mirror,
                                             number, inode, start, cursor,
                                             blocks)
            except ServerDownError:
                raise  # the incarnation is over, and with it the pass
            except ReproError as exc:
                # A replica erroring mid-hop (media fault, disk death)
                # aborts that file's move, not the pass: the hop has
                # already unwound, the file's current extent is intact.
                server._trace("bullet", "compaction.move_failed",
                              inode=number, status=exc.status.name)
                moved = False
            if moved:
                report.files_moved += 1
                report.blocks_moved += blocks
                cursor += blocks
            else:
                report.files_skipped += 1
                cursor = start + blocks
    disk_free.check_invariants()
    report.duration = env.now - started
    report.fragmentation_after = disk_free.external_fragmentation()
    report.largest_hole_after = disk_free.largest_hole
    server._trace("bullet", "compaction",
                  moved=report.files_moved, blocks=report.blocks_moved,
                  skipped=report.files_skipped)
    return report


def _relocate(incarnation: BulletIncarnation, mirror, number: int, inode,
              start: int, cursor: int, blocks: int):
    """Process: bring one file to ``cursor`` (``cursor < start``).
    A slide of at least the file's own length is one disjoint hop; a
    shorter slide bounces through a disjoint staging extent. Returns
    False when the file could not reach ``cursor``; raises the
    underlying :class:`ReproError` after unwinding when a replica
    errors mid-hop."""
    if start - cursor < blocks:
        # The direct slide would overlap the source: bounce through any
        # disjoint free extent (the coalescing tail, usually). No
        # staging room means the file stays put this pass.
        try:
            staging = incarnation.disk_free.allocate(blocks)
        except NoSpaceError:
            return False
        yield from _copy_flip(incarnation, mirror, number, inode, start,
                              staging, blocks)
        start = staging  # hop two below moves staging -> cursor
    if not incarnation.disk_free.is_free(cursor, blocks):
        # A concurrent CREATE owns part of the destination: skip the
        # move. (Single-threaded passes never hit this — the snapshot
        # cannot go stale.)
        return False
    incarnation.disk_free.allocate_at(cursor, blocks)
    yield from _copy_flip(incarnation, mirror, number, inode, start, cursor,
                          blocks)
    return True


def _copy_flip(incarnation: BulletIncarnation, mirror, number: int, inode,
               src: int, dst: int, blocks: int):
    """Process: one abandonable hop from ``src`` to a *disjoint*,
    already-claimed ``dst``. Unwinds the claim and re-raises if a
    replica errors before the flip."""
    if abs(src - dst) < blocks:
        raise ConsistencyError(
            f"compaction hop [{src},{src + blocks}) -> [{dst},{dst + blocks}) "
            "overlaps; a mid-copy failure would tear the only copy"
        )
    try:
        data = yield from mirror.read_with_failover(src, blocks)
        # Copy: the relocated extent becomes durable on every live
        # replica while the old extent and the on-disk inode still
        # describe the old location — an abort here loses nothing.
        yield incarnation.write(mirror, dst, data)
    except ReproError:
        incarnation.disk_free.free(dst, blocks)
        raise
    # Flip: repoint the RAM inode and write the inode block through
    # while the old extent is still allocated (so a crash between the
    # two leaves whichever inode version is on disk pointing at an
    # extent nobody has reused), then return the vacated blocks.
    inode.start_block = dst
    table = incarnation.table
    inode_block = table.block_of_inode(number)
    try:
        yield incarnation.write(mirror, inode_block,
                                table.encode_block(inode_block))
    finally:
        # Even if the write-through errored, RAM state (inode + free
        # map) must stay self-consistent: the file now lives at dst.
        incarnation.disk_free.free(src, blocks)
