"""Disk geometry and the seek/rotation/transfer timing model.

The timing model is what makes the paper's architectural argument
visible: a *contiguous* file costs one seek + one rotational latency +
streaming transfer, while a *scattered* file costs a seek + rotation per
block. Everything here is purely arithmetic; the queueing happens in
:mod:`repro.disk.vdisk`.
"""

from __future__ import annotations

import math

from ..profiles import DiskProfile

__all__ = ["DiskGeometry"]


class DiskGeometry:
    """Geometry calculations for one :class:`~repro.profiles.DiskProfile`.

    The profile is frozen, so everything derived from it is computed
    once here instead of through a property chain on every call."""

    def __init__(self, profile: DiskProfile):
        self.profile = profile
        self.block_size = profile.block_size
        self.total_blocks = profile.total_blocks
        self.blocks_per_cylinder = profile.blocks_per_cylinder
        self.avg_rotational_latency = profile.avg_rotational_latency
        self._transfer_rate = profile.transfer_rate
        self._seek_settle = profile.seek_settle
        self._seek_range = profile.seek_full_stroke - profile.seek_settle
        self._seek_span = math.sqrt(max(profile.cylinders - 1, 1))

    def cylinder_of(self, block: int) -> int:
        """Which cylinder a logical block lives on."""
        if not 0 <= block < self.total_blocks:
            raise ValueError(
                f"block {block} out of range [0, {self.total_blocks})"
            )
        return block // self.blocks_per_cylinder

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Arm movement time between cylinders.

        Square-root profile (constant-acceleration arm): settle time plus
        a component proportional to sqrt(distance), scaled so a full
        stroke costs ``seek_full_stroke``.
        """
        if from_cyl == to_cyl:
            return 0.0
        distance = abs(to_cyl - from_cyl)
        return self._seek_settle + self._seek_range * (
            math.sqrt(distance) / self._seek_span
        )

    def transfer_time(self, nblocks: int) -> float:
        """Media transfer time for ``nblocks`` consecutive blocks."""
        if nblocks < 0:
            raise ValueError(f"negative block count {nblocks}")
        return (nblocks * self.block_size) / self._transfer_rate

    def access_time(self, current_cyl: int, start_block: int, nblocks: int) -> float:
        """Total time for one contiguous access starting at ``start_block``.

        One seek from the arm's current cylinder, the average rotational
        latency, then streaming transfer. Cylinder crossings mid-transfer
        cost one extra track-to-track seek (the settle time) each.
        """
        self.check_extent(start_block, nblocks)
        per_cyl = self.blocks_per_cylinder
        return self.span_time(current_cyl, start_block // per_cyl,
                              (start_block + max(nblocks - 1, 0)) // per_cyl,
                              nblocks)

    def span_time(self, current_cyl: int, first_cyl: int, last_cyl: int,
                  nblocks: int) -> float:
        """:meth:`access_time` for an extent already range-checked and
        mapped to its first and last cylinder (the disk does both once
        per operation, at submission)."""
        if nblocks == 0:
            return 0.0
        return (
            self.seek_time(current_cyl, first_cyl)
            + self.avg_rotational_latency
            + (nblocks * self.block_size) / self._transfer_rate
            + (last_cyl - first_cyl) * self._seek_settle
        )

    def check_extent(self, start_block: int, nblocks: int) -> None:
        """Raise :class:`ValueError` unless ``nblocks`` blocks from
        ``start_block`` lie on the disk."""
        total = self.total_blocks
        if nblocks < 0:
            raise ValueError(f"negative block count {nblocks}")
        if not 0 <= start_block < total:
            raise ValueError(
                f"block {start_block} out of range [0, {total})"
            )
        if start_block + nblocks > total:
            raise ValueError(
                f"extent [{start_block}, {start_block + nblocks}) exceeds disk "
                f"size {total}"
            )
