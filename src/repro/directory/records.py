"""Wire/storage formats of the directory service (S8).

A directory is "a two-column table, the first column containing names,
and the second containing the corresponding capabilities" (§2.1). Each
*version* of a directory is stored as one immutable Bullet file whose
header links to the previous version's capability — the Cedar-style
version chain the paper's reference [7] describes.

The directory server's own durable root state is a fixed array of
**slot records** on its private disk, one per directory object: the
object's secret and the Bullet capability of the directory's current
version. Updating a directory is therefore: create the new version file
(immutable, durable), then overwrite one slot block — crash-atomic,
since a torn update leaves the slot pointing at the intact old version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..capability import CAP_WIRE_SIZE, Capability, NULL_CAPABILITY
from ..errors import BadRequestError, ConsistencyError

__all__ = [
    "DirectoryRows",
    "SlotRecord",
    "SLOT_RECORD_SIZE",
    "pack_cap_set",
    "unpack_cap_set",
    "pack_changes",
    "unpack_changes",
]

_ROWS_MAGIC = 0xD1EC7000
_SLOT_MAGIC = 0x510717


def _as_set(value) -> tuple:
    """A capability set as a tuple; a bare capability is a singleton."""
    return (value,) if isinstance(value, Capability) else tuple(value)


def _normalize_rows(rows: dict) -> dict:
    """Values are capability *sets* (tuples); a bare capability is a
    singleton set. Amoeba directories stored sets so one name could bind
    replicas on several servers."""
    normalized = {}
    for name, value in rows.items():
        caps = _as_set(value)
        if not caps or not all(isinstance(c, Capability) for c in caps):
            raise BadRequestError(
                f"entry {name!r} must bind one or more capabilities"
            )
        normalized[name] = caps
    return normalized


def pack_cap_set(value) -> bytes:
    """The wire form of a capability set (APPEND, REPLACE): its members
    packed back to back, in order."""
    return b"".join(cap.pack() for cap in _as_set(value))


def unpack_cap_set(body: bytes) -> tuple:
    """Decode a non-empty :func:`pack_cap_set` body."""
    if not body or len(body) % CAP_WIRE_SIZE:
        raise BadRequestError(
            f"capability-set body must be a multiple of {CAP_WIRE_SIZE} bytes"
        )
    return tuple(
        Capability.unpack(body[i:i + CAP_WIRE_SIZE])
        for i in range(0, len(body), CAP_WIRE_SIZE)
    )


def pack_changes(changes: dict) -> tuple:
    """The wire form of an UPDATE_MANY: ``(pairs, body)``, one
    ``(name, count)`` pair per change in order (count 0 removes the
    name, as a None value does) and the changed sets packed back to
    back in the body."""
    pairs = []
    parts = []
    for name, value in changes.items():
        caps = () if value is None else _as_set(value)
        pairs.append((name, len(caps)))
        parts.extend(cap.pack() for cap in caps)
    return tuple(pairs), b"".join(parts)


def unpack_changes(pairs, body: bytes) -> dict:
    """Decode :func:`pack_changes`: the body must hold exactly the
    capabilities the counts announce."""
    counts = [count for _name, count in pairs]
    if not all(isinstance(count, int) and count >= 0 for count in counts):
        raise BadRequestError(f"capability counts must be >= 0: {counts}")
    if len(body) != CAP_WIRE_SIZE * sum(counts):
        raise BadRequestError(
            f"{len(body)}-byte body for {sum(counts)} capabilities")
    changes = {}
    offset = 0
    for name, count in pairs:
        end = offset + count * CAP_WIRE_SIZE
        changes[name] = unpack_cap_set(body[offset:end]) if count else None
        offset = end
    return changes


@dataclass
class DirectoryRows:
    """One version of a directory's contents.

    ``rows`` maps names to capability sets (tuples). The first member
    of a set is the primary; the rest are replicas of the same object
    on other servers.
    """

    seq: int = 0
    prev_version: Capability = NULL_CAPABILITY
    rows: dict = field(default_factory=dict)  # name -> tuple[Capability, ...]

    def __post_init__(self):
        self.rows = _normalize_rows(self.rows)

    def encode(self) -> bytes:
        parts = [
            _ROWS_MAGIC.to_bytes(4, "big"),
            self.seq.to_bytes(4, "big"),
            self.prev_version.pack(),
            len(self.rows).to_bytes(4, "big"),
        ]
        for name in sorted(self.rows):
            raw = name.encode("utf-8")
            if not 0 < len(raw) < (1 << 16):
                raise BadRequestError(f"directory entry name too long: {name!r}")
            caps = self.rows[name]
            if len(caps) > 255:
                raise BadRequestError(f"capability set for {name!r} too large")
            parts.append(len(raw).to_bytes(2, "big"))
            parts.append(raw)
            parts.append(len(caps).to_bytes(1, "big"))
            for cap in caps:
                parts.append(cap.pack())
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "DirectoryRows":
        if len(data) < 28:
            raise ConsistencyError("directory file truncated")
        magic = int.from_bytes(data[0:4], "big")
        if magic != _ROWS_MAGIC:
            raise ConsistencyError(f"not a directory file (magic {magic:#x})")
        seq = int.from_bytes(data[4:8], "big")
        prev = Capability.unpack(data[8:24])
        count = int.from_bytes(data[24:28], "big")
        rows = {}
        offset = 28
        for _ in range(count):
            name_len = int.from_bytes(data[offset:offset + 2], "big")
            offset += 2
            name = data[offset:offset + name_len].decode("utf-8")
            offset += name_len
            ncaps = data[offset]
            offset += 1
            caps = []
            for _ in range(ncaps):
                caps.append(Capability.unpack(data[offset:offset + CAP_WIRE_SIZE]))
                offset += CAP_WIRE_SIZE
            rows[name] = tuple(caps)
        return cls(seq=seq, prev_version=prev, rows=rows)


#: On-disk size of one slot record (padded to this; one per disk block).
SLOT_RECORD_SIZE = 32


@dataclass
class SlotRecord:
    """Durable root record for one directory object."""

    in_use: bool = False
    secret: int = 0
    seq: int = 0
    version_cap: Capability = NULL_CAPABILITY

    def encode(self) -> bytes:
        blob = (
            _SLOT_MAGIC.to_bytes(4, "big")
            + (1 if self.in_use else 0).to_bytes(1, "big")
            + self.secret.to_bytes(6, "big")
            + self.seq.to_bytes(4, "big")
            + self.version_cap.pack()
        )
        return blob + bytes(SLOT_RECORD_SIZE - len(blob))

    @classmethod
    def decode(cls, data: bytes) -> "SlotRecord":
        if len(data) < SLOT_RECORD_SIZE:
            raise ConsistencyError("slot record truncated")
        magic = int.from_bytes(data[0:4], "big")
        if magic != _SLOT_MAGIC:
            # A never-written (all-zero) slot decodes as a free slot.
            if data[:SLOT_RECORD_SIZE] == bytes(SLOT_RECORD_SIZE):
                return cls()
            raise ConsistencyError(f"corrupt slot record (magic {magic:#x})")
        return cls(
            in_use=bool(data[4]),
            secret=int.from_bytes(data[5:11], "big"),
            seq=int.from_bytes(data[11:15], "big"),
            version_cap=Capability.unpack(data[15:31]),
        )
