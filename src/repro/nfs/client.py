"""The NFS client syscall layer — the Sun 3/50 side of §4's measurement.

"To disable local caching on the SUN 3/50, we have locked the file using
the SUN UNIX lockf primitive. The read test consisted of an lseek
followed by a read system call. The write test consisted of
consecutively executing creat, write, and close."

With lockf in force (the default here, as in the paper's measurement)
there is no client page cache and no read-ahead: every ``read``/
``write`` syscall turns into synchronous 8 KB NFS RPCs. Each syscall
charges the 3/50's syscall + NFS-client overhead, and each RPC charges
the per-byte XDR/UDP data cost.

``client_caching=True`` models what lockf disabled (ablation A10): a
SunOS-style client page cache with an attribute-cache timeout. Re-reads
within the timeout hit the local cache; after it expires, a GETATTR
revalidates and a changed mtime/size flushes the pages. This is exactly
the machinery whose *weak consistency* the paper's §5 contrasts with the
trivially sound caching of immutable files.

The client reaches its server over the RPC plane only, the path the
paper measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..client.retry import RpcStub
from ..errors import BadRequestError, NotFoundError
from ..net import RpcRequest, RpcTransport
from ..profiles import Testbed
from ..sim import Environment
from .server import FileHandle, NFS_OPCODES

__all__ = ["NfsClient", "OpenFile"]


@dataclass
class OpenFile:
    """One open file descriptor on the client."""

    fd: int
    handle: FileHandle
    offset: int = field(default=0, init=False)


class NfsClient:
    """Syscall-level NFS client (open/creat/read/write/lseek/close)."""

    def __init__(self, env: Environment, testbed: Testbed,
                 rpc: RpcTransport, server_port: int,
                 client_caching: bool = False):
        self.env = env
        self.testbed = testbed
        self._stub = RpcStub(env, rpc)
        self.server_port = server_port
        self.root = FileHandle(1, 1)
        self._fds: dict[int, OpenFile] = {}
        self._next_fd = 3
        # Client page cache (what lockf disables): (fh, chunk) -> bytes,
        # plus per-file attribute cache with a freshness deadline.
        self.client_caching = client_caching
        self._pages: dict = {}
        self._attrs: dict = {}   # fh -> (attrs, valid_until)
        self.cache_hits = 0
        self.cache_misses = 0

    # --------------------------------------------------------- transport

    def _remote(self, opcode: int, args: tuple = (), body: bytes = b""):
        return self._stub.transact(
            self.server_port, RpcRequest(opcode=opcode, args=args, body=body)
        )

    def _lookup_rpc(self, dir_fh: FileHandle, name: str):
        reply = yield from self._remote(NFS_OPCODES["LOOKUP"],
                                        (tuple(dir_fh), name))
        return FileHandle(*reply.args[0])

    def _getattr_rpc(self, fh: FileHandle):
        reply = yield from self._remote(NFS_OPCODES["GETATTR"], (tuple(fh),))
        return reply.args[0]

    def _read_rpc(self, fh: FileHandle, offset: int, count: int):
        reply = yield from self._remote(NFS_OPCODES["READ"],
                                        (tuple(fh), offset, count))
        data = reply.body
        # Client-side XDR decode + UDP checksum of the data.
        yield self.env.timeout(
            len(data) * self.testbed.nfs.data_cost_per_byte_client
        )
        return data

    def _write_rpc(self, fh: FileHandle, offset: int, data: bytes):
        yield self.env.timeout(
            len(data) * self.testbed.nfs.data_cost_per_byte_client
        )
        reply = yield from self._remote(NFS_OPCODES["WRITE"],
                                        (tuple(fh), offset), body=data)
        return reply.args[0]

    def _create_rpc(self, dir_fh: FileHandle, name: str):
        reply = yield from self._remote(NFS_OPCODES["CREATE"],
                                        (tuple(dir_fh), name))
        return FileHandle(*reply.args[0])

    def _remove_rpc(self, dir_fh: FileHandle, name: str):
        yield from self._remote(NFS_OPCODES["REMOVE"], (tuple(dir_fh), name))

    def _mkdir_rpc(self, dir_fh: FileHandle, name: str):
        reply = yield from self._remote(NFS_OPCODES["MKDIR"],
                                        (tuple(dir_fh), name))
        return FileHandle(*reply.args[0])

    # ----------------------------------------------------------- syscalls

    def _walk(self, path: str, stop_before_last: bool = False):
        """Per-component LOOKUP RPCs from the root."""
        parts = [p for p in path.split("/") if p]
        if stop_before_last:
            if not parts:
                raise BadRequestError("path needs a final component")
            walk, last = parts[:-1], parts[-1]
        else:
            walk, last = parts, None
        fh = self.root
        for component in walk:
            fh = yield from self._lookup_rpc(fh, component)
        return fh, last

    def open(self, path: str):
        """Process: open an existing file; returns an fd."""
        yield self.env.timeout(self.testbed.nfs.client_op_overhead)
        fh, _ = yield from self._walk(path)
        yield from self._getattr_rpc(fh)  # open-time attribute fetch
        return self._new_fd(fh)

    def creat(self, path: str):
        """Process: create (or reuse) a file; returns an fd at offset 0."""
        yield self.env.timeout(self.testbed.nfs.client_op_overhead)
        parent, name = yield from self._walk(path, stop_before_last=True)
        try:
            fh = yield from self._lookup_rpc(parent, name)
        except NotFoundError:
            fh = yield from self._create_rpc(parent, name)
        return self._new_fd(fh)

    def read(self, fd: int, count: int):
        """Process: sequential read of ``count`` bytes in 8 KB RPCs
        (or from the client page cache when caching is enabled)."""
        yield self.env.timeout(self.testbed.nfs.client_op_overhead)
        open_file = self._file(fd)
        if self.client_caching:
            return (yield from self._read_cached(open_file, count))
        chunk = self.testbed.nfs.transfer_size
        parts = []
        while count > 0:
            span = min(count, chunk)
            data = yield from self._read_rpc(open_file.handle,
                                             open_file.offset, span)
            parts.append(data)
            open_file.offset += len(data)
            count -= span
            if len(data) < span:
                break  # EOF
        return b"".join(parts)

    def _read_cached(self, open_file: OpenFile, count: int):
        """The SunOS-style path lockf disables: chunk-aligned page cache
        with attribute-timeout revalidation."""
        yield from self._revalidate(open_file.handle)
        chunk = self.testbed.nfs.transfer_size
        out = bytearray()
        while count > 0:
            chunk_index, within = divmod(open_file.offset, chunk)
            data = yield from self._chunk_through_cache(open_file.handle,
                                                        chunk_index)
            piece = data[within:within + min(count, chunk - within)]
            if not piece:
                break  # EOF
            out.extend(piece)
            open_file.offset += len(piece)
            count -= len(piece)
            if within + len(piece) < chunk and len(data) < chunk:
                break  # short chunk: EOF
        return bytes(out)

    def _chunk_through_cache(self, fh: FileHandle, chunk_index: int):
        key = (fh, chunk_index)
        cached = self._pages.get(key)
        if cached is not None:
            self.cache_hits += 1
            yield from ()
            return cached
        self.cache_misses += 1
        chunk = self.testbed.nfs.transfer_size
        data = yield from self._read_rpc(fh, chunk_index * chunk, chunk)
        self._pages[key] = data
        return data

    def _revalidate(self, fh: FileHandle):
        """GETATTR when the attribute cache expired; flush pages on a
        visible change — NFS's weak close-to-open consistency."""
        entry = self._attrs.get(fh)
        if entry is not None and self.env.now < entry[1]:
            return
        attrs = yield from self._getattr_rpc(fh)
        if entry is not None and entry[0] != attrs:
            self._flush_pages(fh)
        self._attrs[fh] = (attrs, self.env.now + self.testbed.nfs.attr_cache_timeout)

    def _flush_pages(self, fh: FileHandle) -> None:
        for key in [k for k in self._pages if k[0] == fh]:
            del self._pages[key]

    def write(self, fd: int, data: bytes):
        """Process: sequential write in synchronous 8 KB RPCs."""
        yield self.env.timeout(self.testbed.nfs.client_op_overhead)
        open_file = self._file(fd)
        chunk = self.testbed.nfs.transfer_size
        data = bytes(data)
        total = 0
        while total < len(data):
            span = min(len(data) - total, chunk)
            # A one-chunk write sends ``data`` itself: a slice of bytes
            # over the whole range is the same object.
            written = yield from self._write_rpc(
                open_file.handle, open_file.offset, data[total:total + span]
            )
            if self.client_caching:
                # Conservative: invalidate the written range's pages and
                # force revalidation on the next read.
                first = open_file.offset // chunk
                last = (open_file.offset + written) // chunk
                for chunk_index in range(first, last + 1):
                    self._pages.pop((open_file.handle, chunk_index), None)
                self._attrs.pop(open_file.handle, None)
            open_file.offset += written
            total += written
        return total

    def lseek(self, fd: int, offset: int):
        """Process: set the file offset (purely client-side + syscall cost)."""
        yield self.env.timeout(self.testbed.nfs.client_op_overhead)
        self._file(fd).offset = offset
        return offset

    def close(self, fd: int):
        """Process: close the descriptor (flush is a no-op: every write
        was already synchronous at the server)."""
        yield self.env.timeout(self.testbed.nfs.client_op_overhead)
        self._fds.pop(fd, None)

    def unlink(self, path: str):
        """Process: remove a file by path."""
        yield self.env.timeout(self.testbed.nfs.client_op_overhead)
        parent, name = yield from self._walk(path, stop_before_last=True)
        yield from self._remove_rpc(parent, name)

    def mkdir(self, path: str):
        """Process: create a directory by path."""
        yield self.env.timeout(self.testbed.nfs.client_op_overhead)
        parent, name = yield from self._walk(path, stop_before_last=True)
        yield from self._mkdir_rpc(parent, name)

    def fstat(self, fd: int):
        """Process: attributes of an open file."""
        yield self.env.timeout(self.testbed.nfs.client_op_overhead)
        return (yield from self._getattr_rpc(self._file(fd).handle))

    # ------------------------------------------------------------ helpers

    def _new_fd(self, fh: FileHandle) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = OpenFile(fd=fd, handle=fh)
        return fd

    def _file(self, fd: int) -> OpenFile:
        open_file = self._fds.get(fd)
        if open_file is None:
            raise BadRequestError(f"bad file descriptor {fd}")
        return open_file
