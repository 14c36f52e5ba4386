"""Write-through replication and the P-FACTOR (§2.2, §3).

"If the P-FACTOR is zero, BULLET.CREATE will return immediately after
the file has been copied to the file server's RAM cache, but before it
has been stored on disk. ... If the P-FACTOR is N, the file will be
stored on N disks before the client can resume."

Every replica write goes through the mirror: CREATE hands
:meth:`~repro.disk.MirroredDiskSet.write_ordered` the data extent and
then the block of the inode table containing the new inode — so a crash
between the two leaves only an unreferenced extent, never an inode
pointing at garbage — and replies once ``p_factor`` replicas have
completed both steps. What is left here is the admission test.
"""

from __future__ import annotations

from ..disk import MirroredDiskSet
from ..errors import BadRequestError, ServerDownError

__all__ = ["check_p_factor"]


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
