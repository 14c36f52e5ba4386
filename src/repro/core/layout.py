"""On-disk layout of a Bullet volume (§3, Fig. 1).

"The disk is divided into two sections. The first is the inode table
... The second section contains contiguous files, along with the gaps
between files."

This module formats volumes, computes the section boundaries, and
renders the Fig. 1 layout picture from a live volume.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..disk import VirtualDisk
from ..errors import BadRequestError
from ..units import fmt_size
from .freelist import ExtentFreeList
from .inode import INODE_SIZE, DiskDescriptor, InodeTable

__all__ = ["VolumeLayout", "format_volume", "render_layout"]


@dataclass(frozen=True)
class VolumeLayout:
    """Section boundaries of a formatted volume (all in blocks)."""

    block_size: int
    inode_table_start: int   # always 0
    inode_table_blocks: int  # the descriptor's "control size"
    data_start: int
    data_blocks: int         # the descriptor's "data size"

    @property
    def descriptor(self) -> DiskDescriptor:
        return DiskDescriptor(
            block_size=self.block_size,
            control_size=self.inode_table_blocks,
            data_size=self.data_blocks,
        )

    @classmethod
    def for_disk(cls, disk: VirtualDisk, inode_count: int) -> "VolumeLayout":
        """Carve a disk into inode table + data area."""
        block_size = disk.block_size
        per_block = block_size // INODE_SIZE
        table_blocks = (inode_count + per_block - 1) // per_block
        if table_blocks >= disk.total_blocks:
            raise BadRequestError(
                f"inode table of {table_blocks} blocks does not fit on a "
                f"{disk.total_blocks}-block disk"
            )
        return cls(
            block_size=block_size,
            inode_table_start=0,
            inode_table_blocks=table_blocks,
            data_start=table_blocks,
            data_blocks=disk.total_blocks - table_blocks,
        )

    def blocks_for(self, nbytes: int) -> int:
        """Blocks needed to hold ``nbytes`` ("files are aligned on
        blocks")."""
        return (nbytes + self.block_size - 1) // self.block_size


def format_volume(disk: VirtualDisk, inode_count: int) -> InodeTable:
    """mkfs: write a fresh descriptor + zeroed inode table to ``disk``.

    Uses the raw (untimed) plane — formatting precedes the measured
    lifetime of the server.
    """
    layout = VolumeLayout.for_disk(disk, inode_count)
    table = InodeTable(layout.descriptor, inode_count)
    disk.write_raw(0, table.encode())
    return table


#: Rows of the Fig. 1 picture: the inode listing shows half of them,
#: the data-area map all of them, before each summarises the rest.
_ROWS = 24


def render_layout(table: InodeTable, freelist: ExtentFreeList) -> str:
    """Render the Fig. 1 picture — inode table, then the data area as
    contiguous files and holes — from live volume state."""
    desc = table.descriptor
    lines = [
        "+----------------------------------------------+",
        "| Disk Descriptor  (inode 0)                   |",
        f"|   block size   = {desc.block_size:<8} bytes              |",
        f"|   control size = {desc.control_size:<8} blocks             |",
        f"|   data size    = {desc.data_size:<8} blocks             |",
        "+---------------- Inode Table -----------------+",
    ]
    live = list(table.live_inodes())
    for number, inode in live[: _ROWS // 2]:
        lines.append(
            f"| inode {number:<5} -> block {inode.start_block:<8} "
            f"{fmt_size(inode.size):<14} |"
        )
    if len(live) > _ROWS // 2:
        lines.append(f"| ... {len(live) - _ROWS // 2} more inodes ...".ljust(47) + "|")
    lines.append("+----------- Contiguous Files and Holes -------+")
    # Merge files and holes into one address-ordered map of the data area.
    segments: list[tuple[int, int, str]] = [
        (inode.start_block,
         max((inode.size + desc.block_size - 1) // desc.block_size, 0),
         f"file (inode {number})")
        for number, inode in live
    ]
    segments.extend(
        (hole.start, hole.length, "free") for hole in freelist.holes()
    )
    segments.sort()
    for start, length, label in segments[:_ROWS]:
        bar = "#" if label != "free" else "."
        width = max(1, min(8, length * 8 // max(desc.data_size, 1) + 1))
        line = f"| {start:>8} +{length:<8} {bar * width:<8} {label:<16}"
        lines.append(line.ljust(47) + "|")
    if len(segments) > _ROWS:
        lines.append(f"| ... {len(segments) - _ROWS} more segments ...".ljust(47) + "|")
    lines.append("+----------------------------------------------+")
    return "\n".join(lines)
