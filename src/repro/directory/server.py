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
    Capability,
    RIGHT_CREATE,
    RIGHT_DELETE,
    RIGHT_READ,
    mint_owner,
    require,
)
from ..core.locks import FileLockTable
from ..errors import (
    BadRequestError,
    CapabilityError,
    ExistsError,
    NotADirectoryError_,
    NotEmptyError,
    NotFoundError,
)
from ..net import (RpcReply, RpcRequest, RpcService, RpcTransport,
                   ServiceEndpoint)
from ..profiles import Testbed
from ..sim import Environment, Tracer
from .records import DirectoryRows, SlotRecord, unpack_cap_set, unpack_changes

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

#: Directory slots on a volume: one block each after the header block,
#: all loaded by boot's single contiguous read.
MAX_DIRECTORIES = 512


class DirectoryIncarnation(ServiceEndpoint):
    """One life of a directory server: the endpoint and its RAM tables."""

    slots: list[SlotRecord]
    free_slots: list[int]  # popped from the end: low slots first
    rows_cache: dict[int, DirectoryRows]
    locks: FileLockTable  # one write lock per directory, see _update


class DirectoryServer(RpcService[DirectoryIncarnation]):
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
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(env, name, transport, tracer)
        self.disk = disk
        self.bullet = bullet_stub
        self.testbed = testbed
        self.master_seed = master_seed

    # -------------------------------------------------------------- setup

    def format(self) -> None:
        """Initialize the slot region on the private disk (untimed)."""
        header = _HEADER_MAGIC.to_bytes(4, "big") + MAX_DIRECTORIES.to_bytes(4, "big")
        self.disk.write_raw(0, header + bytes(self.disk.block_size - len(header)))
        empty = SlotRecord().encode()
        for slot in range(MAX_DIRECTORIES):
            self.disk.write_raw(1 + slot, empty + bytes(self.disk.block_size - len(empty)))

    def boot(self):
        """Process: load the slot table (one contiguous read) and serve."""
        raw = yield self.disk.read(0, 1 + MAX_DIRECTORIES)
        bs = self.disk.block_size
        header = raw[:8]
        if int.from_bytes(header[:4], "big") != _HEADER_MAGIC:
            raise BadRequestError(f"{self.name}: disk is not a directory volume")
        incarnation = DirectoryIncarnation(self.env, self.port, self.transport)
        incarnation.slots = slots = [
            SlotRecord.decode(raw[slot * bs:slot * bs + 32])
            for slot in range(1, 1 + MAX_DIRECTORIES)]
        incarnation.free_slots = [
            slot for slot in reversed(range(MAX_DIRECTORIES))
            if not slots[slot].in_use]
        incarnation.rows_cache = {}
        incarnation.locks = FileLockTable(self.env, owner=self.name)
        self._start_serving(incarnation)
        dirs = MAX_DIRECTORIES - len(incarnation.free_slots)
        self._trace("directory", f"{self.name} booted", dirs=dirs)
        return dirs

    # ----------------------------------------------------------- local API

    def create_directory(self):
        """Process: a fresh empty directory; returns its owner capability."""
        incarnation = self._require_booted()
        if not incarnation.free_slots:
            raise BadRequestError("directory table full")
        slot = incarnation.free_slots.pop()
        secret = incarnation.mint_secret()
        rows = DirectoryRows(seq=0, rows={})
        try:
            version_cap = yield from self.bullet.create(rows.encode(), 1)
            record = SlotRecord(in_use=True, secret=secret, seq=0,
                                version_cap=version_cap)
            yield incarnation.write(self.disk, 1 + slot, record.encode())
        except BaseException:
            incarnation.free_slots.append(slot)
            raise
        incarnation.slots[slot] = record
        incarnation.rows_cache[slot] = rows
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

        def bind(rows: dict) -> None:
            if name in rows:
                raise ExistsError(f"entry {name!r} already exists")
            rows[name] = cap

        yield from self._update(dir_cap, RIGHT_CREATE, bind)

    def replace(self, dir_cap: Capability, name: str, cap):
        """Process: atomically rebind ``name`` (to a capability or a
        capability set); returns the old *primary* capability. This is
        the whole-file version-update primitive: the new immutable file
        is installed under the name in one step. Use :meth:`lookup_set`
        first when the old entry's replicas all need disposal."""
        self._check_name(name)

        def rebind(rows: dict):
            old = rows.get(name)
            if old is None:
                raise NotFoundError(f"no entry {name!r}")
            rows[name] = cap
            return old[0]

        return (yield from self._update(dir_cap, RIGHT_CREATE, rebind))

    def remove_entry(self, dir_cap: Capability, name: str):
        """Process: unbind ``name``; returns the removed primary
        capability (see :meth:`lookup_set` for the full set)."""

        def unbind(rows: dict):
            if name not in rows:
                raise NotFoundError(f"no entry {name!r}")
            return rows.pop(name)[0]

        return (yield from self._update(dir_cap, RIGHT_DELETE, unbind))

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

        def apply(rows: dict) -> None:
            for name, value in changes.items():
                if value is None:
                    if name not in rows:
                        raise NotFoundError(f"no entry {name!r}")
                    del rows[name]
                else:
                    rows[name] = value

        yield from self._update(dir_cap, needed, apply)

    def delete_directory(self, dir_cap: Capability):
        """Process: delete an *empty* directory object (under its write
        lock, as :meth:`_update`)."""
        incarnation = yield from self._charge_check()
        with incarnation.locks.writing(dir_cap.object) as lock:
            yield lock.grant
            slot, _record, rows = yield from self._load(
                incarnation, dir_cap, RIGHT_DELETE)
            if rows.rows:
                raise NotEmptyError(f"directory has {len(rows.rows)} entries")
            empty = SlotRecord()
            yield incarnation.write(self.disk, 1 + slot, empty.encode())
            incarnation.slots[slot] = empty
            incarnation.rows_cache.pop(slot, None)
            incarnation.free_slots.append(slot)

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
        incarnation = self._require_booted()
        in_use = sum(1 for s in incarnation.slots if s.in_use)
        return {
            "name": self.name,
            "directories": in_use,
            "free_slots": len(incarnation.free_slots),
            "rows_cached": len(incarnation.rows_cache),
        }

    def reachable_caps(self, include_history: bool = True):
        """Process: every capability reachable from this directory
        server — the root set for the garbage-collection sweep
        (:mod:`repro.gc`).

        Includes each directory's current version file, every bound
        entry, and (optionally) the whole version-chain of each
        directory, so retained history is never collected.
        """
        incarnation = self._require_booted()
        caps: list[Capability] = []
        for slot, record in enumerate(incarnation.slots):
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
        """Process: check ``dir_cap`` and load its current rows."""
        incarnation = yield from self._charge_check()
        return (yield from self._load(incarnation, dir_cap, needed_rights))

    def _charge_check(self):
        """Process: a capability check's CPU time; returns the incarnation."""
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.capability_check)
        return incarnation

    def _update(self, dir_cap: Capability, needed_rights: int, edit):
        """Process: one read-modify-write of a directory, committed as its
        next version. ``edit`` changes a copy of the name →
        capability-set map in place (or raises); its return value is
        returned. The write lock is held from the read to the commit,
        because the local plane runs beside the serve loop; it is
        requested after the check's CPU time, where an uncontended grant
        completes in place."""
        incarnation = yield from self._charge_check()
        with incarnation.locks.writing(dir_cap.object) as lock:
            yield lock.grant
            slot, record, rows = yield from self._load(
                incarnation, dir_cap, needed_rights)
            new_rows = dict(rows.rows)
            result = edit(new_rows)
            yield from self._commit(incarnation, slot, record, rows, new_rows)
        return result

    def _load(self, incarnation: DirectoryIncarnation, dir_cap: Capability,
              needed_rights: int):
        """Process: check ``dir_cap`` against its slot and return the
        slot, its record and its current rows (read from the Bullet
        server on a rows-cache miss)."""
        slot = dir_cap.object - 1
        if not 0 <= slot < MAX_DIRECTORIES:
            raise NotFoundError(f"directory object {dir_cap.object} out of range")
        record = incarnation.slots[slot]
        if not record.in_use:
            raise NotFoundError(f"directory object {dir_cap.object} does not exist")
        require(dir_cap, record.secret, needed_rights)
        rows = incarnation.rows_cache.get(slot)
        if rows is None:
            raw = yield from self.bullet.read(record.version_cap)
            rows = DirectoryRows.decode(raw)
            incarnation.rows_cache[slot] = rows
        return slot, record, rows

    def _commit(self, incarnation: DirectoryIncarnation, slot: int,
                record: SlotRecord, old_rows: DirectoryRows, new_rows: dict):
        """Write a new directory version, then the slot record."""
        version = DirectoryRows(
            seq=old_rows.seq + 1,
            prev_version=record.version_cap,
            rows=new_rows,
        )
        version_cap = yield from self.bullet.create(version.encode(), 1)
        new_record = SlotRecord(in_use=True, secret=record.secret,
                                seq=version.seq, version_cap=version_cap)
        yield incarnation.write(self.disk, 1 + slot, new_record.encode())
        incarnation.slots[slot] = new_record
        incarnation.rows_cache[slot] = version

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
            targets = unpack_cap_set(req.body)
            yield from self.append(req.cap, req.args[0], targets)
            return RpcReply()
        if op == DIR_OPCODES["REPLACE"]:
            targets = unpack_cap_set(req.body)
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
            changes = unpack_changes(req.args, req.body)
            yield from self.update_many(req.cap, changes)
            return RpcReply()
        raise BadRequestError(f"unknown directory opcode {op}")
