"""Write-through replication and the P-FACTOR (§2.2, §3).

"If the P-FACTOR is zero, BULLET.CREATE will return immediately after
the file has been copied to the file server's RAM cache, but before it
has been stored on disk. ... If the P-FACTOR is N, the file will be
stored on N disks before the client can resume."

Each live replica gets the same two-step, crash-ordered write: the data
extent first, then the block of the inode table containing the new
inode — so a crash between the two leaves only an unreferenced extent,
never an inode pointing at garbage. The create path replies once
``p_factor`` replicas have completed both steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..disk import MirroredDiskSet, VirtualDisk, pad_to_block
from ..errors import BadRequestError, ConsistencyError, ServerDownError
from ..sim import CountOf, Environment, Event

__all__ = ["ReplicatedWrite", "replicated_file_write",
           "replicated_inode_write", "check_p_factor"]


def check_p_factor(p_factor: int, mirror: MirroredDiskSet) -> None:
    """Validate a requested paranoia factor against the configuration.

    "If the P-FACTOR is N, ... this requires the file server to have at
    least N disks available for replication."
    """
    if p_factor < 0:
        raise BadRequestError(f"p-factor must be >= 0, got {p_factor}")
    if p_factor > len(mirror.disks):
        raise BadRequestError(
            f"p-factor {p_factor} exceeds the server's {len(mirror.disks)} disks"
        )
    if p_factor > mirror.replica_count:
        raise ServerDownError(
            f"p-factor {p_factor} requires more live disks than the "
            f"{mirror.replica_count} currently available"
        )


def _write_one_replica(env: Environment, disk: VirtualDisk,
                       data_block: Optional[int], data: bytes,
                       inode_block: int, inode_block_bytes: bytes):
    """Process: make one replica durable (data extent, then inode block)."""
    if data:
        if data_block is None:
            raise ConsistencyError("replica write carries data but no data block")
        yield disk.write(data_block, data)
    yield disk.write(inode_block, inode_block_bytes)
    return disk.name


@dataclass
class ReplicatedWrite:
    """An in-flight replicated write: the quorum event the create path
    blocks on, plus the individual per-replica write processes so the
    caller can observe the background stragglers (a ``p_factor=0``
    CREATE replies before *any* replica is durable; failures past the
    quorum used to vanish silently)."""

    durable: Event
    writes: list


def replicated_file_write(env: Environment, mirror: MirroredDiskSet,
                          data_block: Optional[int], data: bytes,
                          inode_block: int, inode_block_bytes: bytes,
                          p_factor: int) -> ReplicatedWrite:
    """Start data+inode writes on every live replica.

    ``durable`` fires once ``p_factor`` replicas have completed both
    steps (immediately for ``p_factor == 0``); the remaining replicas
    keep writing in the background and stay observable via ``writes``.
    """
    # Snapshot and pad the file once, not once per replica: every disk
    # (and, for a block-aligned file, the RAM cache) holds this object.
    data = pad_to_block(data, mirror.block_size)
    writes = [
        env.process(_write_one_replica(env, disk, data_block, data,
                                       inode_block, inode_block_bytes))
        for disk in mirror.live_disks
    ]
    # These writes bypass mirror.write(), so an in-flight recovery copy
    # must be told about them or it can clobber the rebuilt replica's
    # copy with a stale snapshot (the model checker's repair-race bug).
    if data and data_block is not None:
        mirror.resync_note(data_block, len(data), writes)
    mirror.resync_note(inode_block, len(inode_block_bytes), writes)
    durable = CountOf(env, writes, need=min(p_factor, len(writes)))
    return ReplicatedWrite(durable=durable, writes=writes)


def replicated_inode_write(env: Environment, mirror: MirroredDiskSet,
                           inode_block: int, inode_block_bytes: bytes) -> Event:
    """Write one inode-table block through to every live replica (the
    delete path: "freeing an inode by zeroing it and writing it back to
    the disk"; waits for all replicas)."""
    return mirror.write(inode_block, inode_block_bytes)
