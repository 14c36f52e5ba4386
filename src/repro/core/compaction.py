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

The pre-fix ordering repointed the inode and mutated the free map
*before* the data writes landed, so any READ cache-miss interleaving
with the move window followed ``start_block`` to unwritten blocks, and
any concurrent CREATE could allocate the prematurely freed old extent —
the exact overlap corruption §3's startup scan exists to catch. The bug
was latent while ``_serve`` was single-threaded; with ``workers>1`` (or
compaction running online during service) it is load-bearing, which is
why the write lock and the flip ordering now make it structurally
impossible: a reader either sees the old extent (still intact) or
blocks on the lock until the new extent is durable.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConsistencyError, NoSpaceError, ReproError
from .server import BulletServer

__all__ = ["CompactionReport", "compact_disk"]


@dataclass
class CompactionReport:
    """What one compaction pass did."""

    files_moved: int = 0
    blocks_moved: int = 0
    files_skipped: int = 0
    duration: float = 0.0
    fragmentation_before: float = 0.0
    fragmentation_after: float = 0.0
    largest_hole_before: int = 0
    largest_hole_after: int = 0


def compact_disk(server: BulletServer):
    """Process: one full compaction pass over ``server``'s volume.

    Safe to run online, concurrently with a serving worker pool: each
    file moves under its write lock with copy-then-flip ordering.
    """
    env = server.env
    layout = server.layout
    report = CompactionReport(
        fragmentation_before=server.disk_free.external_fragmentation(),
        largest_hole_before=server.disk_free.largest_hole,
    )
    started = env.now
    live = sorted(server.table.live_inodes(),
                  key=lambda item: item[1].start_block)
    cursor = layout.data_start
    for number, _snapshot_inode in live:
        with server.locks.writing(number) as lock:
            yield lock.grant
            # Revalidate under the lock: the file may have been deleted
            # (or its number reincarnated at a new address) while the
            # pass worked through earlier files.
            inode = server.table.get(number)
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
                moved = yield from _relocate(server, number, inode,
                                             start, cursor, blocks)
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
    server.disk_free.check_invariants()
    report.duration = env.now - started
    report.fragmentation_after = server.disk_free.external_fragmentation()
    report.largest_hole_after = server.disk_free.largest_hole
    server._trace("bullet", "compaction",
                  moved=report.files_moved, blocks=report.blocks_moved,
                  skipped=report.files_skipped)
    return report


def _relocate(server: BulletServer, number: int, inode, start: int,
              cursor: int, blocks: int):
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
            staging = server.disk_free.allocate(blocks)
        except NoSpaceError:
            return False
        yield from _copy_flip(server, number, inode, start, staging, blocks)
        start = staging  # hop two below moves staging -> cursor
    if not server.disk_free.is_free(cursor, blocks):
        # A concurrent CREATE owns part of the destination: skip the
        # move. (Single-threaded passes never hit this — the snapshot
        # cannot go stale.)
        return False
    server.disk_free.allocate_at(cursor, blocks)
    yield from _copy_flip(server, number, inode, start, cursor, blocks)
    return True


def _copy_flip(server: BulletServer, number: int, inode, src: int,
               dst: int, blocks: int):
    """Process: one abandonable hop from ``src`` to a *disjoint*,
    already-claimed ``dst``. Unwinds the claim and re-raises if a
    replica errors before the flip."""
    if abs(src - dst) < blocks:
        raise ConsistencyError(
            f"compaction hop [{src},{src + blocks}) -> [{dst},{dst + blocks}) "
            "overlaps; a mid-copy failure would tear the only copy"
        )
    try:
        data = yield from server.mirror.read_with_failover(src, blocks)
        # Copy: the relocated extent becomes durable on every live
        # replica while the old extent and the on-disk inode still
        # describe the old location — an abort here loses nothing.
        yield server.mirror.write(dst, data)
    except ReproError:
        server.disk_free.free(dst, blocks)
        raise
    # Flip: repoint the RAM inode and write the inode block through
    # while the old extent is still allocated (so a crash between the
    # two leaves whichever inode version is on disk pointing at an
    # extent nobody has reused), then return the vacated blocks.
    inode.start_block = dst
    inode_block = server.table.block_of_inode(number)
    try:
        yield server.mirror.write(
            inode_block, server.table.encode_block(inode_block))
    finally:
        # Even if the write-through errored, RAM state (inode + free
        # map) must stay self-consistent: the file now lives at dst.
        server.disk_free.free(src, blocks)
