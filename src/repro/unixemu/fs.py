"""UNIX emulation on top of the Bullet + directory services (S11).

§5 of the paper: "Recently we have implemented a UNIX emulation on top
of the Bullet service supporting a wealth of existing software."

The emulation maps mutable POSIX-style files onto immutable whole
files:

* ``open`` resolves the path in the directory service; the first read
  fetches the **whole file** into the process (whole-file transfer).
* ``write``/``lseek`` edit the in-memory copy — no server traffic.
* ``close`` of a dirty file commits: BULLET.CREATE the new contents,
  atomically rebind the name in the directory (``replace``/``append``),
  and delete the superseded file (or keep it, when version retention is
  enabled — the Cedar-style behaviour).

So "update-in-place" becomes "new version per close", exactly the model
the paper prescribes, and concurrent readers of the old version are
never disturbed (their capability still names the old immutable file
until they reopen).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..capability import Capability
from ..errors import BadRequestError, ExistsError, NotFoundError
from ..sim import Environment

__all__ = ["UnixEmulation", "UnixFile"]


@dataclass
class UnixFile:
    """One open file description."""

    fd: int
    path: str
    dir_cap: Capability          # directory holding the entry
    name: str                    # entry name within that directory
    cap: Optional[Capability]    # None for a brand-new file
    buffer: bytearray = field(default_factory=bytearray)
    offset: int = 0
    loaded: bool = False
    dirty: bool = False
    writable: bool = False


class UnixEmulation:
    """POSIX-flavoured file API over immutable storage."""

    def __init__(self, env: Environment, bullet_stub, directory,
                 root_cap: Capability, keep_versions: bool = False,
                 p_factor: int = 1):
        self.env = env
        self.bullet = bullet_stub
        self.directory = directory
        self.root = root_cap
        self.keep_versions = keep_versions
        self.p_factor = p_factor
        self._fds: dict[int, UnixFile] = {}
        self._next_fd = 3

    # ------------------------------------------------------------- opening

    def open(self, path: str, mode: str = "r"):
        """Process: open a file. Modes: "r", "w" (truncate/create),
        "a" (append, create), "r+" (read/write existing)."""
        if mode not in ("r", "w", "a", "r+"):
            raise BadRequestError(f"unsupported mode {mode!r}")
        dir_cap, name = yield from self._resolve_parent(path)
        cap: Optional[Capability]
        try:
            cap = yield from self.directory.lookup(dir_cap, name)
            exists = True
        except NotFoundError:
            cap = None
            exists = False
        if mode in ("r", "r+") and not exists:
            raise NotFoundError(f"no such file: {path}")
        handle = UnixFile(
            fd=self._next_fd, path=path, dir_cap=dir_cap, name=name, cap=cap,
            writable=(mode != "r"),
        )
        self._next_fd += 1
        if mode == "w":
            # Truncate (or create): the close commits either way — a
            # fresh "w" open with no writes still creates an empty file,
            # like creat(2).
            handle.loaded = True
            handle.dirty = True
        elif mode == "a" and exists:
            yield from self._load(handle)
            handle.offset = len(handle.buffer)
        elif mode == "a":
            handle.loaded = True
            handle.dirty = True  # created by the open, like O_CREAT
        self._fds[handle.fd] = handle
        return handle.fd

    def _resolve_parent(self, path: str):
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise BadRequestError("path needs a file name")
        dir_cap = self.root
        for component in parts[:-1]:
            dir_cap = yield from self.directory.lookup(dir_cap, component)
        return dir_cap, parts[-1]

    def _load(self, handle: UnixFile):
        """Whole-file fetch on first access."""
        if handle.loaded:
            return
        if handle.cap is not None:
            data = yield from self.bullet.read(handle.cap)
            handle.buffer = bytearray(data)
        handle.loaded = True

    # ----------------------------------------------------------------- I/O

    def read(self, fd: int, count: int):
        """Process: read up to ``count`` bytes at the current offset."""
        handle = self._handle(fd)
        yield from self._load(handle)
        data = bytes(handle.buffer[handle.offset:handle.offset + count])
        handle.offset += len(data)
        return data

    def write(self, fd: int, data: bytes):
        """Process: write at the current offset (in-memory; commits on
        close)."""
        handle = self._handle(fd)
        if not handle.writable:
            raise BadRequestError(f"fd {fd} is read-only")
        yield from self._load(handle)
        end = handle.offset + len(data)
        if end > len(handle.buffer):
            handle.buffer.extend(bytes(end - len(handle.buffer)))
        handle.buffer[handle.offset:end] = data
        handle.offset = end
        handle.dirty = True
        return len(data)

    def lseek(self, fd: int, offset: int, whence: int = 0):
        """Process: move the offset (0=SET, 1=CUR, 2=END). Purely local,
        but a process like every other call for a uniform API."""
        yield from ()
        handle = self._handle(fd)
        if whence == 0:
            new = offset
        elif whence == 1:
            new = handle.offset + offset
        elif whence == 2:
            new = len(handle.buffer) + offset
        else:
            raise BadRequestError(f"bad whence {whence}")
        if new < 0:
            raise BadRequestError("negative file offset")
        handle.offset = new
        return new

    def ftruncate(self, fd: int, length: int):
        """Process: truncate/extend the in-memory image."""
        handle = self._handle(fd)
        if not handle.writable:
            raise BadRequestError(f"fd {fd} is read-only")
        yield from self._load(handle)
        if length < len(handle.buffer):
            del handle.buffer[length:]
        else:
            handle.buffer.extend(bytes(length - len(handle.buffer)))
        handle.dirty = True

    def close(self, fd: int):
        """Process: commit a dirty file as a new immutable version and
        rebind its name. Returns the file's (possibly new) capability."""
        handle = self._fds.pop(fd, None)
        if handle is None:
            raise BadRequestError(f"bad file descriptor {fd}")
        if not handle.dirty:
            return handle.cap
        new_cap = yield from self.bullet.create(bytes(handle.buffer),
                                                self.p_factor)
        if handle.cap is None:
            try:
                yield from self.directory.append(handle.dir_cap, handle.name,
                                                 new_cap)
            except ExistsError:
                # Someone bound the name while we held it open: last
                # close wins, like UNIX.
                old = yield from self.directory.replace(
                    handle.dir_cap, handle.name, new_cap)
                yield from self._discard(old)
        else:
            old = yield from self.directory.replace(handle.dir_cap,
                                                    handle.name, new_cap)
            yield from self._discard(old)
        return new_cap

    def _discard(self, old_cap: Capability):
        if self.keep_versions:
            return
        try:
            yield from self.bullet.delete(old_cap)
        except NotFoundError:
            pass  # already gone

    # ------------------------------------------------------------ metadata

    def stat(self, path: str):
        """Process: {size, is_directory} for a path."""
        cap = yield from self._lookup_path(path)
        if cap.port == self.directory.port:
            return {"size": 0, "is_directory": True}
        size = yield from self.bullet.size(cap)
        return {"size": size, "is_directory": False}

    def unlink(self, path: str):
        """Process: remove the name and delete the file."""
        dir_cap, name = yield from self._resolve_parent(path)
        cap = yield from self.directory.remove_entry(dir_cap, name)
        yield from self._discard(cap)

    def mkdir(self, path: str):
        """Process: create a directory and bind it."""
        dir_cap, name = yield from self._resolve_parent(path)
        new_dir = yield from self.directory.create_directory()
        yield from self.directory.append(dir_cap, name, new_dir)
        return new_dir

    def listdir(self, path: str):
        """Process: names in a directory ("/" lists the root)."""
        if path.strip("/"):
            cap = yield from self._lookup_path(path)
        else:
            cap = self.root
        return (yield from self.directory.list_names(cap))

    def rename(self, old_path: str, new_path: str):
        """Process: move a name (same-server directory shuffle)."""
        old_dir, old_name = yield from self._resolve_parent(old_path)
        new_dir, new_name = yield from self._resolve_parent(new_path)
        cap = yield from self.directory.remove_entry(old_dir, old_name)
        try:
            yield from self.directory.append(new_dir, new_name, cap)
        except ExistsError:
            displaced = yield from self.directory.replace(new_dir, new_name, cap)
            yield from self._discard(displaced)

    def _lookup_path(self, path: str):
        return (yield from self.directory.lookup_path(self.root, path))

    def _handle(self, fd: int) -> UnixFile:
        handle = self._fds.get(fd)
        if handle is None:
            raise BadRequestError(f"bad file descriptor {fd}")
        return handle
