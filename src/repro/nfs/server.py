"""The SUN-NFS-style file server (§4's comparison target).

NFS v2 semantics as SunOS 3.5 implemented them, which is what the paper
measured against:

* stateless server; file handles are (inode, generation) pairs;
* per-block transfers (8 KB) — one RPC round trip per block;
* **synchronous writes**: a WRITE reply means data *and* the updated
  inode are on disk ("The SUN NFS file server uses a write-through
  cache, but writes the file to one disk only");
* a 3 MB LRU buffer cache shared with the rest of a departmental
  server's traffic (modeled by the seeded churn process).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..disk import VirtualDisk
from ..errors import BadRequestError, NotFoundError
from ..net import (RpcReply, RpcRequest, RpcService, RpcTransport,
                   ServiceEndpoint)
from ..obs import MetricsRegistry
from ..profiles import Testbed
from ..sim import Environment, SeededStream, Tracer
from .buffercache import BufferCache
from .ffs import FFS, MODE_DIR, MODE_FILE, ROOT_INUM

__all__ = ["NfsServer", "NFS_OPCODES", "FileHandle"]

NFS_OPCODES = {
    "LOOKUP": 40,
    "GETATTR": 41,
    "READ": 42,
    "WRITE": 43,
    "CREATE": 44,
    "REMOVE": 45,
    "MKDIR": 46,
    "READDIR": 47,
}


class FileHandle(NamedTuple):
    """An opaque NFS file handle: (inum, generation)."""

    inum: int
    generation: int


#: Inodes on the exported volume.
INODES = 1024


class NfsIncarnation(ServiceEndpoint):
    """One life of an NFS server: the endpoint, buffer cache and volume."""

    cache: BufferCache
    fs: FFS


class NfsServer(RpcService[NfsIncarnation]):
    """One NFS server exporting a single FFS volume."""

    OPNAMES = {number: name for name, number in NFS_OPCODES.items()}

    def __init__(
        self,
        env: Environment,
        disk: VirtualDisk,
        testbed: Testbed,
        transport: Optional[RpcTransport] = None,
        background_churn: bool = False,
        master_seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(env, "nfs", transport, tracer, metrics)
        self.disk = disk
        self.testbed = testbed
        self.master_seed = master_seed
        self._op_counters: dict = {}  # opname -> Counter
        self._churn = background_churn

    # -------------------------------------------------------------- setup

    def _filesystem(self, cache):  # cache None: the raw plane, for mkfs
        nfs = self.testbed.nfs
        return FFS(self.env, self.disk, cache, INODES,
                   fs_block_size=nfs.fs_block_size, maxbpg=nfs.direct_blocks)

    def format(self) -> None:
        """mkfs the exported volume (untimed setup plane)."""
        self._filesystem(None).format()

    def boot(self):
        """Process: mount the volume over an empty buffer cache of the
        new incarnation, start serving and, with background churn, the
        churn daemon."""
        nfs = self.testbed.nfs
        incarnation = NfsIncarnation(self.env, self.port, self.transport)
        incarnation.cache = cache = BufferCache(
            incarnation, self.disk, nfs.buffer_cache_bytes,
            nfs.fs_block_size, metrics=self.metrics, owner=self.name)
        incarnation.fs = self._filesystem(cache)
        yield from incarnation.fs.mount()
        self._start_serving(incarnation)
        if self._churn:
            # churn fraction/s of the cache, expressed in blocks/s.
            rate = nfs.background_cache_churn * cache.capacity_blocks
            cache.start_churn(
                SeededStream(self.master_seed, "nfs:churn"), rate)
        return ROOT_INUM

    @property
    def root_handle(self) -> FileHandle:
        return FileHandle(ROOT_INUM, 1)

    # ---------------------------------------------------------- local API
    #
    # A handler works on the volume of the incarnation it took at entry
    # (DESIGN.md §5c).

    @staticmethod
    def _resolve(fs: FFS, fh: FileHandle):
        inode = yield from fs.inode_read(fh.inum)
        if inode.mode == 0 or inode.generation != fh.generation:
            raise NotFoundError(f"stale file handle {tuple(fh)}")
        return inode

    def lookup(self, dir_fh: FileHandle, name: str):
        """Process: NFSPROC_LOOKUP — name -> file handle."""
        fs = self._require_booted().fs
        yield self.env.timeout(self.testbed.nfs.server_op_overhead)
        yield from self._resolve(fs, dir_fh)
        inum = yield from fs.dir_lookup(dir_fh.inum, name)
        inode = yield from fs.inode_read(inum)
        return FileHandle(inum, inode.generation)

    def getattr(self, fh: FileHandle):
        """Process: NFSPROC_GETATTR — (mode, size)."""
        fs = self._require_booted().fs
        yield self.env.timeout(self.testbed.nfs.server_op_overhead)
        inode = yield from self._resolve(fs, fh)
        return {"mode": inode.mode, "size": inode.size,
                "mtime_ms": inode.mtime_ms}

    def read(self, fh: FileHandle, offset: int, count: int):
        """Process: NFSPROC_READ — at most one transfer unit of data."""
        fs = self._require_booted().fs
        nfs = self.testbed.nfs
        if count > nfs.transfer_size:
            raise BadRequestError(
                f"read of {count} exceeds the {nfs.transfer_size} transfer size"
            )
        yield self.env.timeout(self.testbed.nfs.server_op_overhead)
        yield from self._resolve(fs, fh)
        data = yield from fs.read(fh.inum, offset, count)
        yield self.env.timeout(len(data) * nfs.data_cost_per_byte_server)
        return data

    def write(self, fh: FileHandle, offset: int, data: bytes):
        """Process: NFSPROC_WRITE — synchronous (data + inode on disk
        before the reply), as NFS v2 demands."""
        fs = self._require_booted().fs
        nfs = self.testbed.nfs
        if len(data) > nfs.transfer_size:
            raise BadRequestError(
                f"write of {len(data)} exceeds the {nfs.transfer_size} transfer size"
            )
        yield self.env.timeout(self.testbed.nfs.server_op_overhead)
        yield self.env.timeout(len(data) * nfs.data_cost_per_byte_server)
        yield from self._resolve(fs, fh)
        written = yield from fs.write(fh.inum, offset, data)
        return written

    def create(self, dir_fh: FileHandle, name: str):
        """Process: NFSPROC_CREATE — new empty file (sync dir + inode)."""
        fs = self._require_booted().fs
        yield self.env.timeout(self.testbed.nfs.server_op_overhead)
        yield from self._resolve(fs, dir_fh)
        inum, inode = yield from fs.alloc_inode(MODE_FILE)
        yield from fs.dir_add(dir_fh.inum, name, inum)
        return FileHandle(inum, inode.generation)

    def remove(self, dir_fh: FileHandle, name: str):
        """Process: NFSPROC_REMOVE."""
        fs = self._require_booted().fs
        yield self.env.timeout(self.testbed.nfs.server_op_overhead)
        yield from self._resolve(fs, dir_fh)
        inum = yield from fs.dir_remove(dir_fh.inum, name)
        yield from fs.remove(inum)

    def mkdir(self, dir_fh: FileHandle, name: str):
        """Process: NFSPROC_MKDIR."""
        fs = self._require_booted().fs
        yield self.env.timeout(self.testbed.nfs.server_op_overhead)
        yield from self._resolve(fs, dir_fh)
        inum, inode = yield from fs.alloc_inode(MODE_DIR)
        yield from fs.dir_add(dir_fh.inum, name, inum)
        return FileHandle(inum, inode.generation)

    def readdir(self, dir_fh: FileHandle):
        """Process: NFSPROC_READDIR — sorted entry names."""
        fs = self._require_booted().fs
        yield self.env.timeout(self.testbed.nfs.server_op_overhead)
        yield from self._resolve(fs, dir_fh)
        entries = yield from fs.dir_entries(dir_fh.inum)
        return sorted(entries)

    # ------------------------------------------------------------ RPC plane

    def _request_began(self, opname: str, queued: int) -> None:
        ctr = self._op_counters.get(opname)
        if ctr is None:
            ctr = self._op_counters[opname] = self.metrics.counter(
                "repro_nfs_requests_total", server=self.name, op=opname
            )
        ctr.inc()

    def _dispatch(self, req: RpcRequest):
        op = req.opcode
        # The per-block data procedures first: READ is most requests.
        if op == NFS_OPCODES["READ"]:
            fh, offset, count = req.args
            data = yield from self.read(FileHandle(*fh), offset, count)
            return RpcReply(body=data)
        if op == NFS_OPCODES["WRITE"]:
            fh, offset = req.args
            written = yield from self.write(FileHandle(*fh), offset, req.body)
            return RpcReply(args=(written,))
        if op == NFS_OPCODES["LOOKUP"]:
            fh = yield from self.lookup(FileHandle(*req.args[0]), req.args[1])
            return RpcReply(args=(tuple(fh),))
        if op == NFS_OPCODES["GETATTR"]:
            attrs = yield from self.getattr(FileHandle(*req.args[0]))
            return RpcReply(args=(attrs,))
        if op == NFS_OPCODES["CREATE"]:
            fh = yield from self.create(FileHandle(*req.args[0]), req.args[1])
            return RpcReply(args=(tuple(fh),))
        if op == NFS_OPCODES["REMOVE"]:
            yield from self.remove(FileHandle(*req.args[0]), req.args[1])
            return RpcReply()
        if op == NFS_OPCODES["MKDIR"]:
            fh = yield from self.mkdir(FileHandle(*req.args[0]), req.args[1])
            return RpcReply(args=(tuple(fh),))
        if op == NFS_OPCODES["READDIR"]:
            names = yield from self.readdir(FileHandle(*req.args[0]))
            return RpcReply(args=tuple(names))
        raise BadRequestError(f"unknown NFS opcode {op}")
