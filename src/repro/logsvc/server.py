"""The log server (S10).

§2 of the paper: "Each append to a log file, for example, would require
the whole file to be copied. ... For log files we have implemented a
separate server." This is that server: an append-optimized store where
adding a record costs O(record), not O(file) — the A7 benchmark
contrasts it with naively re-creating a Bullet file per append.

Storage: each log is a chain of disk blocks. A block holds a 12-byte
header (used bytes, flags, next-block pointer) and packed records
(2-byte length + payload). Appending writes only the tail block — plus
one extra write to link in a new block when the tail fills. Records
never span blocks, so a record is limited to one block's payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..capability import (
    Capability,
    RIGHT_CREATE,
    RIGHT_READ,
    mint_owner,
    require,
)
from ..core.locks import FileLockTable
from ..disk import VirtualDisk
from ..errors import BadRequestError, NoSpaceError, NotFoundError
from ..net import (RpcReply, RpcRequest, RpcService, RpcTransport,
                   ServiceEndpoint)
from ..profiles import Testbed
from ..sim import Environment

__all__ = ["LogServer", "LOG_OPCODES"]

LOG_OPCODES = {
    "CREATE": 60,
    "APPEND": 61,
    "READ": 62,
    "LENGTH": 63,
}

_HEADER_MAGIC = 0x106507
_BLOCK_HEADER = 12  # used(2) flags(2) next(4) reserved(4)

#: Log slots on a volume: one block each after the header block.
MAX_LOGS = 64


@dataclass
class _LogState:
    secret: int
    first_block: int
    tail_block: int
    tail_used: int      # payload bytes used in the tail block
    record_count: int
    records: list = field(default_factory=list)  # RAM copy for fast reads


class LogIncarnation(ServiceEndpoint):
    """One life of a log server: the endpoint and its RAM tables."""

    logs: dict[int, _LogState]
    free_blocks: list[int]
    locks: FileLockTable  # one write lock per log, held by every append

    def alloc_block(self) -> int:
        if not self.free_blocks:
            raise NoSpaceError("log disk full")
        return self.free_blocks.pop()


class LogServer(RpcService[LogIncarnation]):
    """An append-optimized log store on one private disk, serving as
    ``logsvc``; it traces into its transport's tracer."""

    OPNAMES = {number: name for name, number in LOG_OPCODES.items()}

    def __init__(self, env: Environment, disk: VirtualDisk, testbed: Testbed,
                 transport: Optional[RpcTransport] = None):
        super().__init__(env, "logsvc", transport,
                         transport.tracer if transport is not None else None)
        self.disk = disk
        self.testbed = testbed

    @property
    def payload_per_block(self) -> int:
        return self.disk.block_size - _BLOCK_HEADER

    @property
    def max_record(self) -> int:
        return self.payload_per_block - 2

    # -------------------------------------------------------------- setup

    def format(self) -> None:
        """Header + zeroed slot blocks (untimed)."""
        header = _HEADER_MAGIC.to_bytes(4, "big") + MAX_LOGS.to_bytes(4, "big")
        self.disk.write_raw(0, header)
        for slot in range(MAX_LOGS):
            self.disk.write_raw(1 + slot, bytes(self.disk.block_size))

    def boot(self):
        """Process: check the header, load the slots and walk every
        chain to find the tails."""
        raw = yield self.disk.read(0, 1 + MAX_LOGS)
        if int.from_bytes(raw[:4], "big") != _HEADER_MAGIC:
            raise BadRequestError(f"{self.name}: disk is not a log volume")
        bs = self.disk.block_size
        used_blocks = set(range(0, 1 + MAX_LOGS))
        incarnation = LogIncarnation(self.env, self.port, self.transport)
        incarnation.logs = {}
        for slot in range(MAX_LOGS):
            record = raw[(1 + slot) * bs:(1 + slot) * bs + 12]
            secret = int.from_bytes(record[0:6], "big")
            first = int.from_bytes(record[6:10], "big")
            if secret == 0:
                continue
            state = yield from self._walk_chain(secret, first, used_blocks)
            incarnation.logs[slot] = state
        area_start = 1 + MAX_LOGS
        incarnation.free_blocks = [
            b for b in range(self.disk.total_blocks - 1, area_start - 1, -1)
            if b not in used_blocks
        ]
        incarnation.locks = FileLockTable(self.env, owner=self.name)
        self._start_serving(incarnation)
        return len(incarnation.logs)

    def _walk_chain(self, secret: int, first: int, used_blocks: set):
        records = []
        block = first
        tail_block, tail_used = first, 0
        while block:
            used_blocks.add(block)
            raw = yield self.disk.read(block, 1)
            used = int.from_bytes(raw[0:2], "big")
            nxt = int.from_bytes(raw[4:8], "big")
            offset = _BLOCK_HEADER
            end = _BLOCK_HEADER + used
            while offset < end:
                rec_len = int.from_bytes(raw[offset:offset + 2], "big")
                offset += 2
                records.append(bytes(raw[offset:offset + rec_len]))
                offset += rec_len
            tail_block, tail_used = block, used
            block = nxt
        return _LogState(secret=secret, first_block=first,
                         tail_block=tail_block, tail_used=tail_used,
                         record_count=len(records), records=records)

    # ----------------------------------------------------------- local API

    def create_log(self):
        """Process: a fresh empty log; returns its owner capability."""
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.request_dispatch)
        logs = incarnation.logs
        slot = next((s for s in range(MAX_LOGS) if s not in logs), None)
        if slot is None:
            raise BadRequestError("log table full")
        first = incarnation.alloc_block()
        secret = incarnation.mint_secret()
        # Claimed before the disk writes yield: the local plane runs
        # beside the serve loop, so a concurrent create must not pick
        # the same slot. No capability names the log until this returns.
        logs[slot] = _LogState(secret=secret, first_block=first,
                               tail_block=first, tail_used=0, record_count=0)
        try:
            yield incarnation.write(self.disk, first,
                                    self._encode_block(b"", 0))
            yield incarnation.write(
                self.disk, 1 + slot,
                secret.to_bytes(6, "big") + first.to_bytes(4, "big"))
        except BaseException:
            del logs[slot]
            incarnation.free_blocks.append(first)
            raise
        return mint_owner(self.port, slot + 1, secret)

    def append(self, cap: Capability, record: bytes):
        """Process: append one record; returns its sequence number.

        Cost is one tail-block write (two when a new block is linked) —
        independent of the log's length. Appends to one log hold its
        write lock from reading the tail to writing it, because the
        local plane runs beside the serve loop; the lock is requested
        after the check's CPU time, where an uncontended grant completes
        in place.
        """
        incarnation, state = yield from self._open(cap, RIGHT_CREATE)
        if len(record) > self.max_record:
            raise BadRequestError(
                f"record of {len(record)} bytes exceeds the "
                f"{self.max_record}-byte limit"
            )
        needed = 2 + len(record)
        with incarnation.locks.writing(cap.object) as lock:
            yield lock.grant
            if state.tail_used + needed > self.payload_per_block:
                new_block = incarnation.alloc_block()
                try:
                    yield incarnation.write(self.disk, new_block,
                                            self._encode_block(b"", 0))
                    # Re-point the old tail's next pointer.
                    tail_records = self._tail_payload(state)
                    yield incarnation.write(
                        self.disk, state.tail_block,
                        self._encode_block(tail_records, state.tail_used,
                                           nxt=new_block),
                    )
                except BaseException:
                    incarnation.free_blocks.append(new_block)
                    raise
                state.tail_block = new_block
                state.tail_used = 0
            record = bytes(record)
            used = state.tail_used + needed
            payload = (self._tail_payload(state)
                       + len(record).to_bytes(2, "big") + record)
            yield incarnation.write(self.disk, state.tail_block,
                                    self._encode_block(payload, used))
            # Published only once durable: a failed write leaves the
            # record unread, unnumbered and out of the next tail write.
            start = state.record_count
            state.records.append(record)
            state.record_count += 1
            state.tail_used = used
        return start

    def read(self, cap: Capability, from_seq: int = 0, limit: int = 1 << 30):
        """Process: records from ``from_seq`` (served from the RAM copy;
        the disk chain is the durable form)."""
        _incarnation, state = yield from self._open(cap, RIGHT_READ)
        if from_seq < 0 or limit < 0:
            raise BadRequestError(
                f"negative sequence number or limit ({from_seq}, {limit})")
        return list(state.records[from_seq:from_seq + limit])

    def length(self, cap: Capability):
        """Process: number of records in the log."""
        _incarnation, state = yield from self._open(cap, RIGHT_READ)
        return state.record_count

    def status(self) -> dict:
        """std_status: live counters (synchronous)."""
        incarnation = self._require_booted()
        return {
            "name": self.name,
            "logs": len(incarnation.logs),
            "records": sum(s.record_count for s in incarnation.logs.values()),
            "free_blocks": len(incarnation.free_blocks),
        }

    # ----------------------------------------------------------- internals

    def _open(self, cap: Capability, needed_rights: int):
        incarnation = self._require_booted()
        yield self.env.timeout(self.testbed.cpu.capability_check)
        slot = cap.object - 1
        state = incarnation.logs.get(slot)
        if state is None:
            raise NotFoundError(f"log object {cap.object} does not exist")
        require(cap, state.secret, needed_rights)
        return incarnation, state

    def _tail_payload(self, state: _LogState) -> bytes:
        """Re-encode the records living in the tail block."""
        parts = []
        used = 0
        for record in reversed(state.records):
            needed = 2 + len(record)
            if used + needed > state.tail_used:
                break
            parts.append(len(record).to_bytes(2, "big") + record)
            used += needed
        parts.reverse()
        return b"".join(parts)

    def _encode_block(self, payload: bytes, used: int, nxt: int = 0) -> bytes:
        header = (
            used.to_bytes(2, "big")
            + (0).to_bytes(2, "big")
            + nxt.to_bytes(4, "big")
            + bytes(4)
        )
        return header + payload + bytes(self.payload_per_block - len(payload))

    # ------------------------------------------------------------ RPC plane

    def _dispatch(self, req: RpcRequest):
        op = req.opcode
        if op == LOG_OPCODES["CREATE"]:
            cap = yield from self.create_log()
            return RpcReply(caps=(cap,))
        if req.cap is None:
            raise BadRequestError("request carries no capability")
        if op == LOG_OPCODES["APPEND"]:
            seq = yield from self.append(req.cap, req.body)
            return RpcReply(args=(seq,))
        if op == LOG_OPCODES["READ"]:
            from_seq, limit = req.args
            records = yield from self.read(req.cap, from_seq, limit)
            return RpcReply(args=(len(records),),
                            body=b"".join(
                                len(r).to_bytes(2, "big") + r for r in records
                            ))
        if op == LOG_OPCODES["LENGTH"]:
            n = yield from self.length(req.cap)
            return RpcReply(args=(n,))
        raise BadRequestError(f"unknown log opcode {op}")
