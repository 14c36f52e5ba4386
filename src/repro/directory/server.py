"""The directory server (S8).

"The directory server is used in conjunction with the Bullet server.
Its function is to handle naming and protection of Bullet server files
and other objects in a simple, uniform way." Directories map
human-chosen ASCII names to capabilities; directories are objects
themselves, addressed by capabilities, so arbitrary naming graphs can be
built ("by placing directory capabilities in directories").

Storage model (see :mod:`repro.directory.records`): every directory
version is an immutable Bullet file; the server's own disk holds one
slot record per directory with the current version's capability. All
mutations are crash-atomic: new version file first (durable), slot
record second.

The **version mechanism** the paper defers to the directory service [7]
falls out of this design: :meth:`DirectoryServer.replace` swaps which
immutable file a name points to, and :meth:`history` walks the
prev-version chain of the directory itself.
"""

from __future__ import annotations

from typing import Optional

from ..capability import (
    CAP_WIRE_SIZE,
    Capability,
    RIGHT_CREATE,
    RIGHT_DELETE,
    RIGHT_READ,
    mint_owner,
    require,
)
from ..errors import (
    BadRequestError,
    CapabilityError,
    ExistsError,
    NotADirectoryError_,
    NotEmptyError,
    NotFoundError,
)
from ..net import RpcReply, RpcRequest, RpcService, RpcTransport
from ..profiles import Testbed
from ..sim import Environment, SeededStream, Tracer
from .records import DirectoryRows, SlotRecord

__all__ = ["DirectoryServer", "DIR_OPCODES"]

DIR_OPCODES = {
    "CREATE_DIR": 20,
    "LOOKUP": 21,
    "APPEND": 22,
    "REPLACE": 23,
    "REMOVE": 24,
    "LIST": 25,
    "DELETE_DIR": 26,
    "HISTORY": 27,
    "LOOKUP_PATH": 28,
    "UPDATE_MANY": 29,
}

_HEADER_MAGIC = 0xD1650001


def _unpack_cap_set(body: bytes) -> tuple:
    """Decode one or more packed capabilities from a request body."""
    if not body or len(body) % CAP_WIRE_SIZE:
        raise BadRequestError(
            f"capability-set body must be a multiple of {CAP_WIRE_SIZE} bytes"
        )
    return tuple(
        Capability.unpack(body[i:i + CAP_WIRE_SIZE])
        for i in range(0, len(body), CAP_WIRE_SIZE)
    )


class DirectoryServer(RpcService):
    """A directory server backed by a private disk (or a mirrored set of
    them, for the same availability story as the Bullet server) plus a
    Bullet stub for row storage."""

    OPNAMES = {number: name for name, number in DIR_OPCODES.items()}

    def __init__(
        self,
        env: Environment,
        disk,
        bullet_stub,
        testbed: Testbed,
        name: str = "directory",
        transport: Optional[RpcTransport] = None,
        master_seed: int = 0,
        max_directories: int = 512,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(env, name, transport, tracer)
        self.disk = disk
        self.bullet = bullet_stub
        self.testbed = testbed
        self.max_directories = max_directories
        self._secrets = SeededStream(master_seed, f"{name}:secrets")
        self._slots: list[SlotRecord] = []
        self._rows_cache: dict[int, DirectoryRows] = {}
        self._free_slots: list[int] = []

    # -------------------------------------------------------------- setup

    def format(self) -> None:
        """Initialize the slot region on the private disk (untimed)."""
        header = _HEADER_MAGIC.to_bytes(4, "big") + self.max_directories.to_bytes(4, "big")
        self.disk.write_raw(0, header + bytes(self.disk.block_size - len(header)))
        empty = SlotRecord().encode()
        for slot in range(self.max_directories):
            self.disk.write_raw(1 + slot, empty + bytes(self.disk.block_size - len(empty)))

    def boot(self):
        """Process: load the slot table (one contiguous read) and serve."""
        raw = yield self.disk.read(0, 1 + self.max_directories)
        bs = self.disk.block_size
        header = raw[:8]
        if int.from_bytes(header[:4], "big") != _HEADER_MAGIC:
            raise BadRequestError(f"{self.name}: disk is not a directory volume")
        self._slots = []
        self._free_slots = []
        for slot in range(self.max_directories):
            record = SlotRecord.decode(raw[(1 + slot) * bs:(1 + slot) * bs + 32])
            self._slots.append(record)
            if not record.in_use:
                self._free_slots.append(slot)
        self._free_slots.reverse()  # allocate low slots first
        self._rows_cache.clear()
        self._start_serving()
        self._trace("directory", f"{self.name} booted",
                    dirs=sum(1 for s in self._slots if s.in_use))
        return sum(1 for s in self._slots if s.in_use)

    def crash(self) -> None:
        """Stop serving and drop volatile state (rows cache)."""
        super().crash()
        self._rows_cache.clear()

    # ----------------------------------------------------------- local API

    def create_directory(self):
        """Process: a fresh empty directory; returns its owner capability."""
        self._require_booted()
        if not self._free_slots:
            raise BadRequestError("directory table full")
        slot = self._free_slots.pop()
        secret = self._secrets.randint(1, (1 << 48) - 1)
        rows = DirectoryRows(seq=0, rows={})
        version_cap = yield from self.bullet.create(rows.encode(), 1)
        record = SlotRecord(in_use=True, secret=secret, seq=0,
                            version_cap=version_cap)
        yield self.disk.write(1 + slot, record.encode())
        self._slots[slot] = record
        self._rows_cache[slot] = rows
        if self._tracer is not None:
            self._trace("directory", "create_directory", slot=slot)
        return mint_owner(self.port, slot + 1, secret)

    def lookup(self, dir_cap: Capability, name: str):
        """Process: resolve one name to its primary capability (the
        first member of the entry's capability set)."""
        caps = yield from self.lookup_set(dir_cap, name)
        return caps[0]

    def lookup_set(self, dir_cap: Capability, name: str):
        """Process: the full capability set bound to ``name`` — one
        capability per replica when the object is stored on several
        servers (Amoeba's cap-sets)."""
        _slot, _record, rows = yield from self._open(dir_cap, RIGHT_READ)
        caps = rows.rows.get(name)
        if caps is None:
            raise NotFoundError(f"no entry {name!r}")
        return caps

    def list_names(self, dir_cap: Capability):
        """Process: the directory's names, sorted."""
        _slot, _record, rows = yield from self._open(dir_cap, RIGHT_READ)
        return sorted(rows.rows)

    def append(self, dir_cap: Capability, name: str, cap):
        """Process: bind ``name`` to a capability (or a capability set,
        one member per replica); the name must be new."""
        self._check_name(name)
        slot, record, rows = yield from self._open(dir_cap, RIGHT_CREATE)
        if name in rows.rows:
            raise ExistsError(f"entry {name!r} already exists")
        new_rows = dict(rows.rows)
        new_rows[name] = cap
        yield from self._commit(slot, record, rows, new_rows)

    def replace(self, dir_cap: Capability, name: str, cap):
        """Process: atomically rebind ``name`` (to a capability or a
        capability set); returns the old *primary* capability. This is
        the whole-file version-update primitive: the new immutable file
        is installed under the name in one step. Use :meth:`lookup_set`
        first when the old entry's replicas all need disposal."""
        self._check_name(name)
        slot, record, rows = yield from self._open(dir_cap, RIGHT_CREATE)
        old = rows.rows.get(name)
        if old is None:
            raise NotFoundError(f"no entry {name!r}")
        new_rows = dict(rows.rows)
        new_rows[name] = cap
        yield from self._commit(slot, record, rows, new_rows)
        return old[0]

    def remove_entry(self, dir_cap: Capability, name: str):
        """Process: unbind ``name``; returns the removed primary
        capability (see :meth:`lookup_set` for the full set)."""
        slot, record, rows = yield from self._open(dir_cap, RIGHT_DELETE)
        if name not in rows.rows:
            raise NotFoundError(f"no entry {name!r}")
        new_rows = dict(rows.rows)
        old = new_rows.pop(name)
        yield from self._commit(slot, record, rows, new_rows)
        return old[0]

    def update_many(self, dir_cap: Capability, changes: dict):
        """Process: apply several binds/rebinds/removals **atomically**,
        as one new directory version.

        ``changes`` maps names to a capability (or capability set) to
        bind, or ``None`` to remove the entry. Either every change lands
        or none does — a crash mid-commit leaves the previous version in
        force (the slot still points at the old file). This is the
        multi-object "transaction" the paper's consistency companion [7]
        builds from immutability + atomic replace.
        """
        if not changes:
            raise BadRequestError("update_many with no changes")
        for name in changes:
            self._check_name(name)
        needed = RIGHT_CREATE
        if any(value is None for value in changes.values()):
            needed |= RIGHT_DELETE
        slot, record, rows = yield from self._open(dir_cap, needed)
        new_rows = dict(rows.rows)
        for name, value in changes.items():
            if value is None:
                if name not in new_rows:
                    raise NotFoundError(f"no entry {name!r}")
                del new_rows[name]
            else:
                new_rows[name] = value
        yield from self._commit(slot, record, rows, new_rows)

    def delete_directory(self, dir_cap: Capability):
        """Process: delete an *empty* directory object."""
        slot, record, rows = yield from self._open(dir_cap, RIGHT_DELETE)
        if rows.rows:
            raise NotEmptyError(f"directory has {len(rows.rows)} entries")
        empty = SlotRecord()
        yield self.disk.write(1 + slot, empty.encode())
        self._slots[slot] = empty
        self._rows_cache.pop(slot, None)
        self._free_slots.append(slot)

    def lookup_path(self, root_cap: Capability, path: str):
        """Process: walk a ``/``-separated path from ``root_cap``.

        Every intermediate component must resolve to a directory on this
        server; the final component's capability is returned as-is (it
        may name a Bullet file, another directory, any object).
        """
        parts = [p for p in path.split("/") if p]
        if not parts:
            return root_cap
        current = root_cap
        for component in parts[:-1]:
            current = yield from self.lookup(current, component)
            if current.port != self.port:
                raise NotADirectoryError_(
                    f"{component!r} is not a directory on this server"
                )
        return (yield from self.lookup(current, parts[-1]))

    def history(self, dir_cap: Capability, limit: int = 16):
        """Process: capabilities of this directory's version files,
        newest first, by walking the prev-version chain. The walk stops
        at the first version file that is gone — pruned, or its object
        number since reincarnated — so every capability returned names
        a readable version."""
        slot, record, _rows = yield from self._open(dir_cap, RIGHT_READ)
        chain = []
        cursor = record.version_cap
        while len(chain) < limit:
            try:
                raw = yield from self.bullet.read(cursor)
            except (NotFoundError, CapabilityError):
                break
            chain.append(cursor)
            cursor = DirectoryRows.decode(raw).prev_version
            if cursor.check == 0 and cursor.port == 0:
                break
        return chain

    def prune_history(self, dir_cap: Capability, keep: int = 1):
        """Process: delete all but the newest ``keep`` version files.
        Returns how many versions were deleted. The oldest kept version
        still names its deleted predecessor; :meth:`history` stops at
        that unreadable link, so the chain needs no rewrite."""
        if keep < 1:
            raise BadRequestError("must keep at least the current version")
        chain = yield from self.history(dir_cap, limit=1 << 16)
        doomed = chain[keep:]
        for cap in doomed:
            yield from self.bullet.delete(cap)
        return len(doomed)

    def status(self) -> dict:
        """std_status: live counters (synchronous)."""
        self._require_booted()
        in_use = sum(1 for s in self._slots if s.in_use)
        return {
            "name": self.name,
            "directories": in_use,
            "free_slots": len(self._free_slots),
            "rows_cached": len(self._rows_cache),
        }

    def reachable_caps(self, include_history: bool = True):
        """Process: every capability reachable from this directory
        server — the root set for the garbage-collection sweep
        (:mod:`repro.gc`).

        Includes each directory's current version file, every bound
        entry, and (optionally) the whole version-chain of each
        directory, so retained history is never collected.
        """
        self._require_booted()
        caps: list[Capability] = []
        for slot, record in enumerate(self._slots):
            if not record.in_use:
                continue
            dir_cap = mint_owner(self.port, slot + 1, record.secret)
            if include_history:
                chain = yield from self.history(dir_cap, limit=1 << 16)
                caps.extend(chain)
            else:
                caps.append(record.version_cap)
            _slot, _record, rows = yield from self._open(dir_cap, 0)
            for cap_set in rows.rows.values():
                caps.extend(cap_set)
        return caps

    # ----------------------------------------------------------- internals

    def _open(self, dir_cap: Capability, needed_rights: int):
        """Verify a directory capability and load its current rows."""
        self._require_booted()
        yield self.env.timeout(self.testbed.cpu.capability_check)
        slot = dir_cap.object - 1
        if not 0 <= slot < self.max_directories:
            raise NotFoundError(f"directory object {dir_cap.object} out of range")
        record = self._slots[slot]
        if not record.in_use:
            raise NotFoundError(f"directory object {dir_cap.object} does not exist")
        require(dir_cap, record.secret, needed_rights)
        rows = self._rows_cache.get(slot)
        if rows is None:
            raw = yield from self.bullet.read(record.version_cap)
            rows = DirectoryRows.decode(raw)
            self._rows_cache[slot] = rows
        return slot, record, rows

    def _commit(self, slot: int, record: SlotRecord, old_rows: DirectoryRows,
                new_rows: dict):
        """Write a new directory version, then the slot record."""
        version = DirectoryRows(
            seq=old_rows.seq + 1,
            prev_version=record.version_cap,
            rows=new_rows,
        )
        version_cap = yield from self.bullet.create(version.encode(), 1)
        new_record = SlotRecord(in_use=True, secret=record.secret,
                                seq=version.seq, version_cap=version_cap)
        yield self.disk.write(1 + slot, new_record.encode())
        self._slots[slot] = new_record
        self._rows_cache[slot] = version

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or "/" in name:
            raise BadRequestError(f"invalid entry name {name!r}")

    # ------------------------------------------------------------ RPC plane

    def _dispatch(self, req: RpcRequest):
        op = req.opcode
        if op == DIR_OPCODES["CREATE_DIR"]:
            cap = yield from self.create_directory()
            return RpcReply(caps=(cap,))
        if req.cap is None:
            raise BadRequestError("request carries no capability")
        if op == DIR_OPCODES["LOOKUP"]:
            caps = yield from self.lookup_set(req.cap, req.args[0])
            return RpcReply(caps=tuple(caps))
        if op == DIR_OPCODES["APPEND"]:
            targets = _unpack_cap_set(req.body)
            yield from self.append(req.cap, req.args[0], targets)
            return RpcReply()
        if op == DIR_OPCODES["REPLACE"]:
            targets = _unpack_cap_set(req.body)
            old = yield from self.replace(req.cap, req.args[0], targets)
            return RpcReply(caps=(old,))
        if op == DIR_OPCODES["REMOVE"]:
            old = yield from self.remove_entry(req.cap, req.args[0])
            return RpcReply(caps=(old,))
        if op == DIR_OPCODES["LIST"]:
            names = yield from self.list_names(req.cap)
            return RpcReply(args=tuple(names))
        if op == DIR_OPCODES["DELETE_DIR"]:
            yield from self.delete_directory(req.cap)
            return RpcReply()
        if op == DIR_OPCODES["HISTORY"]:
            chain = yield from self.history(req.cap)
            return RpcReply(caps=tuple(chain))
        if op == DIR_OPCODES["LOOKUP_PATH"]:
            cap = yield from self.lookup_path(req.cap, req.args[0])
            return RpcReply(caps=(cap,))
        if op == DIR_OPCODES["UPDATE_MANY"]:
            # args: tuple of (name, cap_count) pairs; cap_count 0 means
            # removal; body: the packed capabilities, in pair order.
            changes = {}
            offset = 0
            for name, count in req.args:
                if count == 0:
                    changes[name] = None
                else:
                    caps = tuple(
                        Capability.unpack(
                            req.body[offset + i * CAP_WIRE_SIZE:
                                     offset + (i + 1) * CAP_WIRE_SIZE]
                        )
                        for i in range(count)
                    )
                    offset += count * CAP_WIRE_SIZE
                    changes[name] = caps
            yield from self.update_many(req.cap, changes)
            return RpcReply()
        raise BadRequestError(f"unknown directory opcode {op}")
