"""The Bullet file server — the paper's primary contribution (S7).

Public surface:

* :class:`BulletServer` — the server itself (local + RPC planes).
* :func:`compact_disk` — the §3 compaction job.
* The building blocks (inodes, layout, free lists, cache, recovery) for
  tests, ablations, and downstream reuse.
"""

from .cache import BulletCache, CacheStats, Rnode
from .compaction import CompactionReport, compact_disk
from .freelist import Extent, ExtentFreeList
from .inode import INODE_SIZE, DiskDescriptor, Inode, InodeTable
from .layout import VolumeLayout, format_volume, render_layout
from .locks import FileLockTable, LockGrant
from .recovery import ScanReport, scan_volume
from .server import OPCODES, BulletServer, ServerStats, VerifiedCapCache

__all__ = [
    "BulletCache",
    "CacheStats",
    "Rnode",
    "CompactionReport",
    "compact_disk",
    "Extent",
    "ExtentFreeList",
    "INODE_SIZE",
    "DiskDescriptor",
    "Inode",
    "InodeTable",
    "VolumeLayout",
    "format_volume",
    "render_layout",
    "FileLockTable",
    "LockGrant",
    "ScanReport",
    "scan_volume",
    "OPCODES",
    "BulletServer",
    "VerifiedCapCache",
    "ServerStats",
]
