"""Disk substrate (S4/S5): virtual disks with seek/rotation/transfer
timing, request scheduling, and mirroring. Fault injection lives in
:mod:`repro.faults`."""

from .geometry import DiskGeometry
from .mirror import MirroredDiskSet
from .scheduler import ElevatorQueue, FcfsQueue, make_queue
from .vdisk import DiskStats, VirtualDisk, pad_to_block

__all__ = [
    "DiskGeometry",
    "MirroredDiskSet",
    "ElevatorQueue",
    "FcfsQueue",
    "make_queue",
    "DiskStats",
    "VirtualDisk",
    "pad_to_block",
]
