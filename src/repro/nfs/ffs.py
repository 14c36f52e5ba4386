"""A Fast-File-System-style block filesystem — the traditional design
the paper contrasts with (§1: "files were split into fixed size blocks
scattered all over the disk ... indirect blocks were necessary to
administer the files and their blocks").

Faithful to the 1980s BSD FFS in the properties that matter for the
comparison:

* fixed-size logical blocks (8 KB, the SunOS default);
* per-inode block maps with 12 direct pointers, one single-indirect and
  one double-indirect block, so files beyond 96 KB pay extra metadata
  I/O;
* **cylinder-group allocation**: a file's blocks start in a group chosen
  by its inode number and move to the next group every ``maxbpg``
  blocks — the classic FFS policy that deliberately scatters large
  files across the disk (to spread free space), costing a long seek per
  group switch;
* synchronous metadata writes (inodes, directories, indirect blocks)
  as the NFS v2 server required; allocation bitmaps are written back
  lazily and re-synced in bulk.

All disk access goes through the :class:`~repro.nfs.buffercache.BufferCache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import Struct

from ..disk import VirtualDisk
from ..errors import (
    BadRequestError,
    ConsistencyError,
    ExistsError,
    NoSpaceError,
    NotFoundError,
)
from ..sim import Environment
from .buffercache import BufferCache

__all__ = ["FFS", "FFSInode", "Superblock", "MODE_FREE", "MODE_FILE", "MODE_DIR"]

MODE_FREE = 0
MODE_FILE = 1
MODE_DIR = 2

FFS_INODE_SIZE = 128  # as in BSD FFS (dinode = 128 bytes)
NDIRECT = 12
_SB_MAGIC = 0xFF5FF5FF

#: The root directory's inode number (inode 0 is reserved/invalid).
ROOT_INUM = 1

# On-disk records are big-endian 32-bit words: the superblock is magic +
# ten fields; an inode is mode, size, generation, mtime, the direct
# pointers, indirect and double-indirect, zero-padded to its 128 bytes.
_SB_STRUCT = Struct(">11I")
_INODE_STRUCT = Struct(f">{NDIRECT + 6}I{FFS_INODE_SIZE - 4 * (NDIRECT + 6)}x")


@dataclass
class Superblock:
    fs_block_size: int
    ninodes: int
    inode_start: int
    inode_blocks: int
    bitmap_start: int
    bitmap_blocks: int
    data_start: int
    data_blocks: int
    maxbpg: int
    cg_count: int

    def encode(self) -> bytes:
        return _SB_STRUCT.pack(
            _SB_MAGIC, self.fs_block_size, self.ninodes, self.inode_start,
            self.inode_blocks, self.bitmap_start, self.bitmap_blocks,
            self.data_start, self.data_blocks, self.maxbpg, self.cg_count,
        )

    @classmethod
    def decode(cls, data: bytes) -> "Superblock":
        magic, *values = _SB_STRUCT.unpack_from(data)
        if magic != _SB_MAGIC:
            raise ConsistencyError(f"not an FFS volume (magic {magic:#x})")
        return cls(*values)


@dataclass(slots=True)
class FFSInode:
    mode: int = MODE_FREE
    size: int = 0
    generation: int = 0
    mtime_ms: int = 0  # modification time, simulated milliseconds
    direct: list = field(default_factory=lambda: [0] * NDIRECT)
    indirect: int = 0
    dindirect: int = 0

    def encode(self) -> bytes:
        return _INODE_STRUCT.pack(
            self.mode, self.size, self.generation,
            self.mtime_ms & 0xFFFFFFFF, *self.direct,
            self.indirect, self.dindirect,
        )

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> "FFSInode":
        """The inode stored at ``offset`` of ``data`` (an inode-table
        block is decoded in place, without slicing the record out)."""
        mode, size, generation, mtime_ms, *direct, indirect, dindirect = (
            _INODE_STRUCT.unpack_from(data, offset))
        return cls(mode, size, generation, mtime_ms, direct,
                   indirect, dindirect)


def encode_directory(entries: dict) -> bytes:
    parts = [len(entries).to_bytes(4, "big")]
    for name in sorted(entries):
        raw = name.encode("utf-8")
        parts.append(len(raw).to_bytes(2, "big"))
        parts.append(raw)
        parts.append(entries[name].to_bytes(4, "big"))
    return b"".join(parts)


def decode_directory(data: bytes) -> dict:
    count = int.from_bytes(data[0:4], "big")
    entries = {}
    offset = 4
    for _ in range(count):
        name_len = int.from_bytes(data[offset:offset + 2], "big")
        offset += 2
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        entries[name] = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
    return entries


class FFS:
    """The filesystem proper. All I/O methods are simulation processes."""

    def __init__(self, env: Environment, disk: VirtualDisk,
                 cache: BufferCache, fs_block_size: int = 8192,
                 ninodes: int = 1024, maxbpg: int = 12, cg_count: int = 8):
        self.env = env
        self.disk = disk
        self.cache = cache
        self.fs_block_size = fs_block_size
        self.ninodes = ninodes
        self.maxbpg = maxbpg
        self.cg_count = cg_count
        self.sb: Superblock
        self._bitmap: bytearray  # one byte per data block; RAM-authoritative
        self._free_data_blocks = 0
        self._group_rotor: dict[int, int] = {}
        self._mounted = False

    # ------------------------------------------------------------ geometry

    @property
    def ptrs_per_block(self) -> int:
        return self.fs_block_size // 4

    def _layout(self) -> Superblock:
        sectors_per_block = self.fs_block_size // self.disk.block_size
        total_fs_blocks = self.disk.total_blocks // sectors_per_block
        inode_blocks = (self.ninodes * FFS_INODE_SIZE + self.fs_block_size - 1) // self.fs_block_size
        inode_start = 1
        bitmap_start = inode_start + inode_blocks
        remaining = total_fs_blocks - bitmap_start
        # 1 byte per data block in the bitmap area (byte-map for clarity).
        bitmap_blocks = (remaining + self.fs_block_size) // (self.fs_block_size + 1)
        data_start = bitmap_start + bitmap_blocks
        data_blocks = total_fs_blocks - data_start
        if data_blocks <= 0:
            raise BadRequestError("disk too small for this FFS configuration")
        return Superblock(
            fs_block_size=self.fs_block_size,
            ninodes=self.ninodes,
            inode_start=inode_start,
            inode_blocks=inode_blocks,
            bitmap_start=bitmap_start,
            bitmap_blocks=bitmap_blocks,
            data_start=data_start,
            data_blocks=data_blocks,
            maxbpg=self.maxbpg,
            cg_count=self.cg_count,
        )

    # --------------------------------------------------------------- setup

    def format(self) -> None:
        """mkfs: superblock, zeroed inodes, empty bitmap, empty root dir
        (untimed raw writes)."""
        sb = self._layout()
        spb = self.fs_block_size // self.disk.block_size
        self.disk.write_raw(0, sb.encode())
        empty_inodes = bytes(self.fs_block_size)
        for b in range(sb.inode_blocks):
            self.disk.write_raw((sb.inode_start + b) * spb, empty_inodes)
        for b in range(sb.bitmap_blocks):
            self.disk.write_raw((sb.bitmap_start + b) * spb, bytes(self.fs_block_size))
        # Root directory: inode ROOT_INUM, empty.
        root = FFSInode(mode=MODE_DIR, size=0, generation=1)
        raw = bytearray(empty_inodes)
        raw[ROOT_INUM * FFS_INODE_SIZE:(ROOT_INUM + 1) * FFS_INODE_SIZE] = root.encode()
        self.disk.write_raw(sb.inode_start * spb, bytes(raw))

    def mount(self):
        """Process: read the superblock and the allocation bitmaps."""
        spb = self.fs_block_size // self.disk.block_size
        raw = yield self.disk.read(0, spb)
        self.sb = Superblock.decode(raw)
        bitmap = bytearray()
        for b in range(self.sb.bitmap_blocks):
            data = yield from self.cache.read_block(self.sb.bitmap_start + b)
            bitmap.extend(data)
        self._bitmap = bitmap[: self.sb.data_blocks]
        self._free_data_blocks = self._bitmap.count(0)
        self._group_rotor = {}
        self._mounted = True

    # ------------------------------------------------------------- inodes

    def _inode_block(self, inum: int) -> tuple[int, int]:
        per_block = self.fs_block_size // FFS_INODE_SIZE
        return (self.sb.inode_start + inum // per_block,
                (inum % per_block) * FFS_INODE_SIZE)

    def inode_read(self, inum: int):
        """Process: load one inode (through the cache)."""
        self._check_inum(inum)
        fbn, offset = self._inode_block(inum)
        raw = yield from self.cache.read_block(fbn)
        return FFSInode.decode(raw, offset)

    def inode_write(self, inum: int, inode: FFSInode, sync: bool = True):
        """Process: store one inode (synchronous metadata by default)."""
        self._check_inum(inum)
        fbn, offset = self._inode_block(inum)
        raw = bytearray((yield from self.cache.read_block(fbn)))
        raw[offset:offset + FFS_INODE_SIZE] = inode.encode()
        yield from self.cache.write_block(fbn, bytes(raw), sync=sync)

    def alloc_inode(self, mode: int):
        """Process: claim a free inode; returns (inum, inode)."""
        for inum in range(1, self.ninodes):
            inode = yield from self.inode_read(inum)
            if inode.mode == MODE_FREE:
                fresh = FFSInode(mode=mode, generation=inode.generation + 1)
                yield from self.inode_write(inum, fresh)
                return inum, fresh
        raise NoSpaceError("out of inodes")

    # -------------------------------------------------------- block alloc

    def _alloc_block(self, inum: int, file_block_index: int) -> int:
        """Pick a free data block using the FFS cylinder-group policy.

        Group = inode's base group advanced every ``maxbpg`` file blocks;
        scan that group first, then wrap. Returns an absolute fs block
        number. The bitmap update is RAM-only here; callers persist via
        :meth:`sync_bitmaps`.
        """
        if self._free_data_blocks == 0:
            raise NoSpaceError("filesystem full")
        per_group = max(self.sb.data_blocks // self.cg_count, 1)
        base_group = (inum + file_block_index // self.maxbpg) % self.cg_count
        for step in range(self.cg_count + 1):
            group = (base_group + step) % self.cg_count
            start = group * per_group
            end = self.sb.data_blocks if group == self.cg_count - 1 else (group + 1) * per_group
            end = min(end, self.sb.data_blocks)
            # Rotor: resume scanning where the last allocation in this
            # group left off (reset on free), keeping the scan O(1)
            # amortized on big volumes.
            rotor = max(self._group_rotor.get(group, start), start)
            for rel in range(rotor, end):
                if self._bitmap[rel] == 0:
                    self._bitmap[rel] = 1
                    self._free_data_blocks -= 1
                    self._group_rotor[group] = rel + 1
                    return self.sb.data_start + rel
            self._group_rotor[group] = end
        raise NoSpaceError("filesystem full (bitmap scan found nothing)")

    def _free_block(self, fbn: int) -> None:
        rel = fbn - self.sb.data_start
        if not 0 <= rel < self.sb.data_blocks:
            raise ConsistencyError(f"freeing block {fbn} outside the data area")
        if self._bitmap[rel] == 0:
            raise ConsistencyError(f"double free of block {fbn}")
        self._bitmap[rel] = 0
        self._free_data_blocks += 1
        # Rewind the owning group's scan rotor so the block is reusable.
        per_group = max(self.sb.data_blocks // self.cg_count, 1)
        group = min(rel // per_group, self.cg_count - 1)
        if self._group_rotor.get(group, 0) > rel:
            self._group_rotor[group] = rel

    def sync_bitmaps(self):
        """Process: write the RAM bitmap back (delayed writes)."""
        for b in range(self.sb.bitmap_blocks):
            chunk = bytes(self._bitmap[b * self.fs_block_size:(b + 1) * self.fs_block_size])
            yield from self.cache.write_block(self.sb.bitmap_start + b, chunk,
                                              sync=False)

    @property
    def free_bytes(self) -> int:
        return self._free_data_blocks * self.fs_block_size

    # ---------------------------------------------------------------- bmap

    def bmap(self, inum: int, inode: FFSInode, fbi: int, allocate: bool = False):
        """Process: map file block index -> fs block number (0 = hole).

        Walks/creates indirect blocks through the cache; newly allocated
        indirect blocks are synchronous metadata writes.
        """
        ppb = self.ptrs_per_block
        if fbi < NDIRECT:
            if inode.direct[fbi] == 0 and allocate:
                inode.direct[fbi] = self._alloc_block(inum, fbi)
            return inode.direct[fbi]
        fbi -= NDIRECT
        if fbi < ppb:
            if inode.indirect == 0:
                if not allocate:
                    return 0
                inode.indirect = self._alloc_block(inum, NDIRECT)
                yield from self.cache.write_block(inode.indirect,
                                                  bytes(self.fs_block_size))
            return (yield from self._indirect_slot(inum, inode.indirect, fbi,
                                                   NDIRECT + fbi, allocate))
        fbi -= ppb
        if fbi >= ppb * ppb:
            raise BadRequestError("file exceeds the double-indirect limit")
        if inode.dindirect == 0:
            if not allocate:
                return 0
            inode.dindirect = self._alloc_block(inum, NDIRECT + ppb)
            yield from self.cache.write_block(inode.dindirect,
                                              bytes(self.fs_block_size))
        outer_index = fbi // ppb
        raw = yield from self.cache.read_block(inode.dindirect)
        inner = int.from_bytes(raw[outer_index * 4:outer_index * 4 + 4], "big")
        if inner == 0:
            if not allocate:
                return 0
            inner = self._alloc_block(inum, NDIRECT + ppb + fbi)
            yield from self.cache.write_block(inner, bytes(self.fs_block_size))
            patched = bytearray(raw)
            patched[outer_index * 4:outer_index * 4 + 4] = inner.to_bytes(4, "big")
            yield from self.cache.write_block(inode.dindirect, bytes(patched))
        return (yield from self._indirect_slot(inum, inner, fbi % ppb,
                                               NDIRECT + ppb + fbi, allocate))

    def _indirect_slot(self, inum: int, indirect_fbn: int, slot: int,
                       logical_fbi: int, allocate: bool):
        raw = yield from self.cache.read_block(indirect_fbn)
        fbn = int.from_bytes(raw[slot * 4:slot * 4 + 4], "big")
        if fbn == 0 and allocate:
            fbn = self._alloc_block(inum, logical_fbi)
            patched = bytearray(raw)
            patched[slot * 4:slot * 4 + 4] = fbn.to_bytes(4, "big")
            yield from self.cache.write_block(indirect_fbn, bytes(patched))
        return fbn

    # ------------------------------------------------------------ file I/O

    def read(self, inum: int, offset: int, count: int):
        """Process: up to ``count`` bytes from ``offset`` (EOF-clipped)."""
        inode = yield from self.inode_read(inum)
        if inode.mode == MODE_FREE:
            raise NotFoundError(f"inode {inum} is free")
        if offset >= inode.size:
            return b""
        count = min(count, inode.size - offset)
        out = bytearray()
        while count > 0:
            fbi, within = divmod(offset, self.fs_block_size)
            span = min(count, self.fs_block_size - within)
            fbn = yield from self.bmap(inum, inode, fbi)
            if fbn == 0:
                out.extend(bytes(span))  # hole
            else:
                raw = yield from self.cache.read_block(fbn)
                out.extend(raw[within:within + span])
            offset += span
            count -= span
        return bytes(out)

    def write(self, inum: int, offset: int, data: bytes, sync: bool = True):
        """Process: write ``data`` at ``offset``, allocating blocks as
        needed; the inode is rewritten (synchronously when ``sync``)."""
        inode = yield from self.inode_read(inum)
        if inode.mode == MODE_FREE:
            raise NotFoundError(f"inode {inum} is free")
        cursor = offset
        remaining = memoryview(bytes(data))
        while len(remaining) > 0:
            fbi, within = divmod(cursor, self.fs_block_size)
            span = min(len(remaining), self.fs_block_size - within)
            fbn = yield from self.bmap(inum, inode, fbi, allocate=True)
            if within == 0 and span == self.fs_block_size:
                block = bytes(remaining[:span])
            else:
                existing = yield from self.cache.read_block(fbn)
                patched = bytearray(existing)
                patched[within:within + span] = remaining[:span]
                block = bytes(patched)
            yield from self.cache.write_block(fbn, block, sync=sync)
            cursor += span
            remaining = remaining[span:]
        if cursor > inode.size:
            inode.size = cursor
        inode.mtime_ms = int(self.env.now * 1000)
        yield from self.inode_write(inum, inode, sync=sync)
        # Allocation bitmaps are delayed writes (FFS wrote them async);
        # they land on disk at the next cache sync.
        yield from self.sync_bitmaps()
        return len(data)

    def remove(self, inum: int):
        """Process: free every block of the file and zero the inode."""
        inode = yield from self.inode_read(inum)
        if inode.mode == MODE_FREE:
            raise NotFoundError(f"inode {inum} is already free")
        nblocks = (inode.size + self.fs_block_size - 1) // self.fs_block_size
        for fbi in range(nblocks):
            fbn = yield from self.bmap(inum, inode, fbi)
            if fbn:
                self._free_block(fbn)
        ppb = self.ptrs_per_block
        if inode.indirect:
            self._free_block(inode.indirect)
        if inode.dindirect:
            raw = yield from self.cache.read_block(inode.dindirect)
            for i in range(ppb):
                inner = int.from_bytes(raw[i * 4:i * 4 + 4], "big")
                if inner:
                    self._free_block(inner)
            self._free_block(inode.dindirect)
        dead = FFSInode(mode=MODE_FREE, generation=inode.generation)
        yield from self.inode_write(inum, dead)
        yield from self.sync_bitmaps()

    # ---------------------------------------------------------- directories

    def dir_entries(self, dir_inum: int):
        """Process: the directory's name -> inum map."""
        inode = yield from self.inode_read(dir_inum)
        if inode.mode != MODE_DIR:
            raise NotFoundError(f"inode {dir_inum} is not a directory")
        if inode.size == 0:
            return {}
        raw = yield from self.read(dir_inum, 0, inode.size)
        return decode_directory(raw)

    def dir_lookup(self, dir_inum: int, name: str):
        """Process: resolve one name; raises NotFoundError."""
        entries = yield from self.dir_entries(dir_inum)
        if name not in entries:
            raise NotFoundError(f"no entry {name!r}")
        return entries[name]

    def dir_add(self, dir_inum: int, name: str, inum: int):
        """Process: add an entry (synchronous directory write)."""
        entries = yield from self.dir_entries(dir_inum)
        if name in entries:
            raise ExistsError(f"entry {name!r} already exists")
        entries[name] = inum
        yield from self._dir_rewrite(dir_inum, entries)

    def dir_remove(self, dir_inum: int, name: str):
        """Process: remove an entry; returns its inum."""
        entries = yield from self.dir_entries(dir_inum)
        if name not in entries:
            raise NotFoundError(f"no entry {name!r}")
        inum = entries.pop(name)
        yield from self._dir_rewrite(dir_inum, entries)
        return inum

    def _dir_rewrite(self, dir_inum: int, entries: dict):
        blob = encode_directory(entries)
        inode = yield from self.inode_read(dir_inum)
        inode.size = 0  # shrink-then-write keeps stale tails unreadable
        yield from self.inode_write(dir_inum, inode, sync=False)
        yield from self.write(dir_inum, 0, blob, sync=True)

    # ------------------------------------------------------------- helpers

    def _check_inum(self, inum: int) -> None:
        if not 1 <= inum < self.ninodes:
            raise BadRequestError(f"inode number {inum} out of range")
