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
  lazily and re-synced in bulk, and mount rebuilds the map from the
  inodes the way fsck does.

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

#: Cylinder groups the data area is divided into (the block allocator's
#: unit of locality).
_CYLINDER_GROUPS = 8


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
        f = _INODE_STRUCT.unpack_from(data, offset)
        return cls(f[0], f[1], f[2], f[3], list(f[4:4 + NDIRECT]), f[-2], f[-1])


def _patched(block: bytes, offset: int, part) -> bytes:
    """``block`` with ``part`` written over it at ``offset``: one copy."""
    view = memoryview(block)
    return b"".join((view[:offset], part, view[offset + len(part):]))


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
                 cache: BufferCache, ninodes: int, fs_block_size: int = 8192,
                 maxbpg: int = 12):
        self.env = env
        self.disk = disk
        self.cache = cache
        self.fs_block_size = fs_block_size
        self.ninodes = ninodes
        self.maxbpg = maxbpg
        self._inodes_per_block = fs_block_size // FFS_INODE_SIZE
        # mount() builds the superblock and the allocation state.

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
            cg_count=_CYLINDER_GROUPS,
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
        """Process: read the superblock and the allocation bitmaps, then
        rebuild the allocation map from the live inodes.

        Bitmaps are delayed writes and nothing syncs them before a
        crash, so the disk's copy is only a hint. As fsck does, the map
        is rebuilt from every live inode's block pointers and indirect
        blocks. The rebuild reads the raw plane, uncharged like
        :meth:`format`: it takes no simulated time and leaves the cache
        alone, so mount costs what SunOS's did (the superblock and the
        bitmap blocks, read through the cache). On a freshly formatted
        volume the rebuilt map is the one on disk."""
        spb = self.fs_block_size // self.disk.block_size
        raw = yield self.disk.read(0, spb)
        self.sb = Superblock.decode(raw)
        for b in range(self.sb.bitmap_blocks):
            fbn = self.sb.bitmap_start + b
            if self.cache.probe(fbn) is None:
                yield from self.cache.load(fbn)
        self._bitmap = self._allocation_map()  # RAM-authoritative
        self._free_data_blocks = self._bitmap.count(0)
        # The bitmap as the cache was last handed it, one bytes object
        # per bitmap block, and the blocks allocation has changed since.
        self._bitmap_blocks = [self._bitmap_block(b)
                               for b in range(self.sb.bitmap_blocks)]
        self._bitmap_touched: set[int] = set()
        self._group_rotor: dict[int, int] = {}

    def _allocation_map(self) -> bytearray:
        """One byte per data block, set for every block a live inode
        owns on disk."""
        sb = self.sb
        used = bytearray(sb.data_blocks)
        for _inum, fbn in self.owned_blocks():
            if not sb.data_start <= fbn < sb.data_start + sb.data_blocks:
                raise ConsistencyError(
                    f"an inode points at block {fbn}, outside the data area")
            used[fbn - sb.data_start] = 1
        return used

    def owned_blocks(self):
        """``(inum, fbn)`` for every block a live inode owns on disk: its
        direct blocks, its indirect blocks and the blocks they point at
        — fsck's walk, over the raw plane (no simulated time, no
        cache)."""
        spb = self.fs_block_size // self.disk.block_size
        pointers = Struct(f">{self.ptrs_per_block}I")

        def pointed(fbn: int) -> list:
            table = pointers.unpack(self.disk.read_raw(fbn * spb, spb))
            return [p for p in table if p]

        table = self.disk.read_raw(self.sb.inode_start * spb,
                                   self.sb.inode_blocks * spb)
        for inum, (mode, _s, _g, _m, *direct, indirect, dindirect) in (
                enumerate(_INODE_STRUCT.iter_unpack(table))):
            if mode == MODE_FREE:
                continue
            owned = [fbn for fbn in direct if fbn]
            if indirect:
                owned.append(indirect)
                owned.extend(pointed(indirect))
            if dindirect:
                owned.append(dindirect)
                for inner in pointed(dindirect):
                    owned.append(inner)
                    owned.extend(pointed(inner))
            for fbn in owned:
                yield inum, fbn

    # ------------------------------------------------------------- inodes

    def _inode_block(self, inum: int) -> tuple[int, int]:
        """(fs block, byte offset) of inode ``inum``."""
        if not 0 < inum < self.ninodes:
            raise BadRequestError(f"inode number {inum} out of range")
        block, slot = divmod(inum, self._inodes_per_block)
        return self.sb.inode_start + block, slot * FFS_INODE_SIZE

    def inode_read(self, inum: int):
        """Process: load one inode (through the cache)."""
        fbn, offset = self._inode_block(inum)
        raw = self.cache.probe(fbn) or (yield from self.cache.load(fbn))
        return FFSInode.decode(raw, offset)

    def inode_write(self, inum: int, inode: FFSInode, sync: bool = True):
        """Process: store one inode (synchronous metadata by default)."""
        fbn, offset = self._inode_block(inum)
        raw = self.cache.probe(fbn) or (yield from self.cache.load(fbn))
        block = _patched(raw, offset, inode.encode())
        if sync:
            yield from self.cache.write_block(fbn, block)
        else:
            self.cache.write_delayed(fbn, (block,))

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
        per_group = max(self.sb.data_blocks // _CYLINDER_GROUPS, 1)
        base_group = (inum + file_block_index // self.maxbpg) % _CYLINDER_GROUPS
        for step in range(_CYLINDER_GROUPS + 1):
            group = (base_group + step) % _CYLINDER_GROUPS
            start = group * per_group
            end = self.sb.data_blocks if group == _CYLINDER_GROUPS - 1 else (group + 1) * per_group
            end = min(end, self.sb.data_blocks)
            # Rotor: resume scanning where the last allocation in this
            # group left off (reset on free), keeping the scan O(1)
            # amortized on big volumes.
            rotor = max(self._group_rotor.get(group, start), start)
            rel = self._bitmap.find(0, rotor, end)
            if rel >= 0:
                self._bitmap[rel] = 1
                self._bitmap_touched.add(rel // self.fs_block_size)
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
        self._bitmap_touched.add(rel // self.fs_block_size)
        self._free_data_blocks += 1
        # Rewind the owning group's scan rotor so the block is reusable.
        per_group = max(self.sb.data_blocks // _CYLINDER_GROUPS, 1)
        group = min(rel // per_group, _CYLINDER_GROUPS - 1)
        if self._group_rotor.get(group, 0) > rel:
            self._group_rotor[group] = rel

    def sync_bitmaps(self) -> None:
        """Hand the whole RAM bitmap to the cache as delayed writes. Only
        the blocks allocation touched since the last sync are rebuilt;
        every other block is the object handed over last time."""
        for b in self._bitmap_touched:
            self._bitmap_blocks[b] = self._bitmap_block(b)
        self._bitmap_touched.clear()
        self.cache.write_delayed(self.sb.bitmap_start, self._bitmap_blocks)

    def _bitmap_block(self, b: int) -> bytes:
        """Bitmap block ``b``'s bytes as the disk holds them (the last
        block zero-padded)."""
        size = self.fs_block_size
        chunk = memoryview(self._bitmap)[b * size:(b + 1) * size]
        return bytes(chunk).ljust(size, b"\0")

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
        raw = (self.cache.probe(inode.dindirect)
               or (yield from self.cache.load(inode.dindirect)))
        inner = int.from_bytes(raw[outer_index * 4:outer_index * 4 + 4], "big")
        if inner == 0:
            if not allocate:
                return 0
            inner = self._alloc_block(inum, NDIRECT + ppb + fbi)
            yield from self.cache.write_block(inner, bytes(self.fs_block_size))
            yield from self.cache.write_block(
                inode.dindirect, _patched(raw, outer_index * 4,
                                          inner.to_bytes(4, "big")))
        return (yield from self._indirect_slot(inum, inner, fbi % ppb,
                                               NDIRECT + ppb + fbi, allocate))

    def _indirect_slot(self, inum: int, indirect_fbn: int, slot: int,
                       logical_fbi: int, allocate: bool):
        raw = (self.cache.probe(indirect_fbn)
               or (yield from self.cache.load(indirect_fbn)))
        fbn = int.from_bytes(raw[slot * 4:slot * 4 + 4], "big")
        if fbn == 0 and allocate:
            fbn = self._alloc_block(inum, logical_fbi)
            yield from self.cache.write_block(
                indirect_fbn, _patched(raw, slot * 4, fbn.to_bytes(4, "big")))
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
        parts = []
        while count > 0:
            fbi, within = divmod(offset, self.fs_block_size)
            span = min(count, self.fs_block_size - within)
            fbn = yield from self.bmap(inum, inode, fbi)
            if fbn == 0:
                parts.append(bytes(span))  # hole
            else:
                raw = self.cache.probe(fbn) or (yield from self.cache.load(fbn))
                parts.append(raw[within:within + span])
            offset += span
            count -= span
        # One part (a read inside one block) is returned as it is: the
        # cached block itself when the read covers it whole.
        return b"".join(parts)

    def write(self, inum: int, offset: int, data: bytes):
        """Process: write ``data`` at ``offset``, allocating blocks as
        needed; the data and the inode are written through."""
        inode = yield from self.inode_read(inum)
        if inode.mode == MODE_FREE:
            raise NotFoundError(f"inode {inum} is free")
        data = bytes(data)
        view = memoryview(data)
        done = 0
        while done < len(data):
            fbi, within = divmod(offset + done, self.fs_block_size)
            span = min(len(data) - done, self.fs_block_size - within)
            fbn = yield from self.bmap(inum, inode, fbi, allocate=True)
            if span == self.fs_block_size:
                # A whole block: ``data`` itself when it is one block.
                block = data[done:done + span]
            else:
                existing = (self.cache.probe(fbn)
                            or (yield from self.cache.load(fbn)))
                block = _patched(existing, within, view[done:done + span])
            yield from self.cache.write_block(fbn, block)
            done += span
        if offset + done > inode.size:
            inode.size = offset + done
        inode.mtime_ms = int(self.env.now * 1000)
        yield from self.inode_write(inum, inode)
        # Allocation bitmaps are delayed writes (FFS wrote them async);
        # they land on disk at the next cache sync.
        self.sync_bitmaps()
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
            raw = (self.cache.probe(inode.dindirect)
                   or (yield from self.cache.load(inode.dindirect)))
            for i in range(ppb):
                inner = int.from_bytes(raw[i * 4:i * 4 + 4], "big")
                if inner:
                    self._free_block(inner)
            self._free_block(inode.dindirect)
        dead = FFSInode(mode=MODE_FREE, generation=inode.generation)
        yield from self.inode_write(inum, dead)
        self.sync_bitmaps()

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
        yield from self.write(dir_inum, 0, blob)
