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

from typing import Optional

from ..disk import VirtualDisk
from ..errors import BadRequestError, NotFoundError
from ..net import RpcReply, RpcRequest, RpcService, RpcTransport
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


class FileHandle(tuple):
    """An opaque NFS file handle: (inum, generation)."""

    __slots__ = ()

    def __new__(cls, inum: int, generation: int):
        return super().__new__(cls, (inum, generation))

    @property
    def inum(self) -> int:
        return self[0]

    @property
    def generation(self) -> int:
        return self[1]


class NfsServer(RpcService):
    """One NFS server exporting a single FFS volume."""

    OPNAMES = {number: name for name, number in NFS_OPCODES.items()}

    def __init__(
        self,
        env: Environment,
        disk: VirtualDisk,
        testbed: Testbed,
        name: str = "nfs",
        transport: Optional[RpcTransport] = None,
        background_churn: bool = False,
        master_seed: int = 0,
        ninodes: int = 1024,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(env, name, transport, tracer, metrics)
        self.disk = disk
        self.testbed = testbed
        self._op_counters: dict = {}  # opname -> Counter
        nfs = testbed.nfs
        self.cache = BufferCache(env, disk, nfs.buffer_cache_bytes,
                                 nfs.fs_block_size,
                                 metrics=self.metrics, owner=name)
        self.fs = FFS(env, disk, self.cache, fs_block_size=nfs.fs_block_size,
                      ninodes=ninodes, maxbpg=nfs.direct_blocks)
        self._churn = background_churn
        self._churn_stream = SeededStream(master_seed, f"{name}:churn")

    # -------------------------------------------------------------- setup

    def format(self) -> None:
        """mkfs the exported volume (untimed setup plane)."""
        self.fs.format()

    def boot(self):
        """Process: mount the volume and start serving."""
        yield from self.fs.mount()
        self._start_serving()
        if self._churn:
            nfs = self.testbed.nfs
            # churn fraction/s of the cache, expressed in blocks/s.
            rate = nfs.background_cache_churn * self.cache.capacity_blocks
            # Intentional daemon fork: background cache pressure runs for
            # the whole experiment, detached by design.
            self.env.process(  # repro: allow(S001)
                self.cache.churn_process(self._churn_stream, rate)
            )
        return ROOT_INUM

    @property
    def root_handle(self) -> FileHandle:
        return FileHandle(ROOT_INUM, 1)

    # ---------------------------------------------------------- local API

    def _overhead(self):
        yield self.env.timeout(self.testbed.nfs.server_op_overhead)

    def _data_cost(self, nbytes: int):
        yield self.env.timeout(
            nbytes * self.testbed.nfs.data_cost_per_byte_server
        )

    def _resolve(self, fh: FileHandle):
        inode = yield from self.fs.inode_read(fh.inum)
        if inode.mode == 0 or inode.generation != fh.generation:
            raise NotFoundError(f"stale file handle {tuple(fh)}")
        return inode

    def lookup(self, dir_fh: FileHandle, name: str):
        """Process: NFSPROC_LOOKUP — name -> file handle."""
        self._require_booted()
        yield from self._overhead()
        yield from self._resolve(dir_fh)
        inum = yield from self.fs.dir_lookup(dir_fh.inum, name)
        inode = yield from self.fs.inode_read(inum)
        return FileHandle(inum, inode.generation)

    def getattr(self, fh: FileHandle):
        """Process: NFSPROC_GETATTR — (mode, size)."""
        self._require_booted()
        yield from self._overhead()
        inode = yield from self._resolve(fh)
        return {"mode": inode.mode, "size": inode.size,
                "mtime_ms": inode.mtime_ms}

    def read(self, fh: FileHandle, offset: int, count: int):
        """Process: NFSPROC_READ — at most one transfer unit of data."""
        self._require_booted()
        nfs = self.testbed.nfs
        if count > nfs.transfer_size:
            raise BadRequestError(
                f"read of {count} exceeds the {nfs.transfer_size} transfer size"
            )
        yield from self._overhead()
        yield from self._resolve(fh)
        data = yield from self.fs.read(fh.inum, offset, count)
        yield from self._data_cost(len(data))
        return data

    def write(self, fh: FileHandle, offset: int, data: bytes):
        """Process: NFSPROC_WRITE — synchronous (data + inode on disk
        before the reply), as NFS v2 demands."""
        self._require_booted()
        nfs = self.testbed.nfs
        if len(data) > nfs.transfer_size:
            raise BadRequestError(
                f"write of {len(data)} exceeds the {nfs.transfer_size} transfer size"
            )
        yield from self._overhead()
        yield from self._data_cost(len(data))
        yield from self._resolve(fh)
        written = yield from self.fs.write(fh.inum, offset, data, sync=True)
        return written

    def create(self, dir_fh: FileHandle, name: str):
        """Process: NFSPROC_CREATE — new empty file (sync dir + inode)."""
        self._require_booted()
        yield from self._overhead()
        yield from self._resolve(dir_fh)
        inum, inode = yield from self.fs.alloc_inode(MODE_FILE)
        yield from self.fs.dir_add(dir_fh.inum, name, inum)
        return FileHandle(inum, inode.generation)

    def remove(self, dir_fh: FileHandle, name: str):
        """Process: NFSPROC_REMOVE."""
        self._require_booted()
        yield from self._overhead()
        yield from self._resolve(dir_fh)
        inum = yield from self.fs.dir_remove(dir_fh.inum, name)
        yield from self.fs.remove(inum)

    def mkdir(self, dir_fh: FileHandle, name: str):
        """Process: NFSPROC_MKDIR."""
        self._require_booted()
        yield from self._overhead()
        yield from self._resolve(dir_fh)
        inum, inode = yield from self.fs.alloc_inode(MODE_DIR)
        yield from self.fs.dir_add(dir_fh.inum, name, inum)
        return FileHandle(inum, inode.generation)

    def readdir(self, dir_fh: FileHandle):
        """Process: NFSPROC_READDIR — sorted entry names."""
        self._require_booted()
        yield from self._overhead()
        yield from self._resolve(dir_fh)
        entries = yield from self.fs.dir_entries(dir_fh.inum)
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
        if op == NFS_OPCODES["LOOKUP"]:
            fh = yield from self.lookup(FileHandle(*req.args[0]), req.args[1])
            return RpcReply(args=(tuple(fh),))
        if op == NFS_OPCODES["GETATTR"]:
            attrs = yield from self.getattr(FileHandle(*req.args[0]))
            return RpcReply(args=(attrs,))
        if op == NFS_OPCODES["READ"]:
            fh, offset, count = req.args
            data = yield from self.read(FileHandle(*fh), offset, count)
            return RpcReply(body=data)
        if op == NFS_OPCODES["WRITE"]:
            fh, offset = req.args
            written = yield from self.write(FileHandle(*fh), offset, req.body)
            return RpcReply(args=(written,))
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
