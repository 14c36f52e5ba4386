"""Startup scan and consistency checking (§3).

"By scanning the inodes it can figure out which parts of disk are free.
It uses this information to build a free list in RAM. Also unused inodes
... are maintained in a list. While scanning the inodes, the file server
performs some consistency checks, for example to make sure that files do
not overlap."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConsistencyError
from .freelist import ExtentFreeList
from .inode import InodeTable
from .layout import VolumeLayout

__all__ = ["ScanReport", "scan_volume"]


@dataclass
class ScanReport:
    """Result of the startup scan."""

    live_files: int = field(default=0, init=False)
    live_bytes: int = field(default=0, init=False)
    free_blocks: int = field(default=0, init=False)

    def __str__(self) -> str:
        return (f"scan: {self.live_files} live files, {self.live_bytes} "
                f"bytes, {self.free_blocks} free blocks")


def scan_volume(table: InodeTable, layout: VolumeLayout,
                strategy: str = "first_fit") -> tuple[ExtentFreeList, ScanReport]:
    """Replay the inode table into a disk free list, checking consistency.

    An inconsistent inode (an extent outside the data area, or
    overlapping another file) raises :class:`ConsistencyError`.
    """
    freelist = ExtentFreeList(layout.data_start, layout.data_blocks,
                              strategy=strategy)
    report = ScanReport()
    data_end = layout.data_start + layout.data_blocks
    for number, inode in table.live_inodes():
        blocks = layout.blocks_for(inode.size)
        problem = None
        if blocks == 0:
            # Zero-length files occupy no extent; nothing to claim.
            report.live_files += 1
            continue
        if not layout.data_start <= inode.start_block < data_end:
            problem = (
                f"start block {inode.start_block} outside the data area "
                f"[{layout.data_start}, {data_end})"
            )
        elif inode.start_block + blocks > data_end:
            problem = (
                f"extent [{inode.start_block}, {inode.start_block + blocks}) "
                f"runs past the data area end {data_end}"
            )
        else:
            try:
                freelist.allocate_at(inode.start_block, blocks)
            except ConsistencyError:
                problem = (
                    f"extent [{inode.start_block}, {inode.start_block + blocks}) "
                    "overlaps another file"
                )
        if problem is not None:
            raise ConsistencyError(f"inode {number}: {problem}")
        report.live_files += 1
        report.live_bytes += inode.size
    report.free_blocks = freelist.free_units
    freelist.check_invariants()
    return freelist, report
