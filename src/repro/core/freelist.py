"""Extent free lists for contiguous allocation (§3).

The Bullet server scans its inode table at startup and "uses this
information to build a free list in RAM"; allocation is **first fit**.
Both the disk data area (unit: blocks) and the RAM cache (unit: bytes)
use this structure — the paper manages both with free lists.

Best-fit is provided as an ablation (A4), and the fragmentation metrics
back the paper's §3 discussion of the contiguity/fragmentation
trade-off ("buying an 800 MB disk to store 500 MB worth of files").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from ..errors import BadRequestError, ConsistencyError, NoSpaceError

__all__ = ["Extent", "ExtentFreeList"]


@dataclass(frozen=True)
class Extent:
    """A contiguous run of units: [start, start + length)."""

    start: int
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise BadRequestError(f"extent length must be positive: {self.length}")
        if self.start < 0:
            raise BadRequestError(f"extent start must be >= 0: {self.start}")


class ExtentFreeList:
    """Free space over [area_start, area_start + area_size), kept as a
    sorted, coalesced list of holes."""

    def __init__(self, area_start: int, area_size: int,
                 strategy: str = "first_fit"):
        if area_size < 0:
            raise BadRequestError(f"negative area size {area_size}")
        if strategy not in ("first_fit", "best_fit"):
            raise BadRequestError(f"unknown allocation strategy {strategy!r}")
        self.area_start = area_start
        self.area_size = area_size
        self.strategy = strategy
        # Parallel sorted arrays of hole starts and lengths. Allocation
        # and free run from concurrent handlers (CREATE/DELETE/AGE) and
        # from compaction, and CREATE allocates before it holds any file
        # lock: what keeps the arrays whole is that no method here
        # yields, so each search-and-splice is one atomic step under the
        # cooperative kernel.
        self._starts: list[int] = [area_start] if area_size else []
        self._lengths: list[int] = [area_size] if area_size else []
        # Observability gauges (repro.obs), published after every
        # mutation once attached.
        self._gauges: Optional[tuple] = None

    # ------------------------------------------------------------ queries

    @property
    def free_units(self) -> int:
        """Total free units."""
        return sum(self._lengths)

    @property
    def used_units(self) -> int:
        return self.area_size - self.free_units

    @property
    def largest_hole(self) -> int:
        return max(self._lengths, default=0)

    @property
    def hole_count(self) -> int:
        return len(self._starts)

    def holes(self) -> list[Extent]:
        """A snapshot of the holes, in address order."""
        return [Extent(s, l) for s, l in zip(self._starts, self._lengths)]

    def external_fragmentation(self) -> float:
        """1 - largest_hole/free: 0 when all free space is one hole,
        approaching 1 when free space is unusable for large requests."""
        free = self.free_units
        if free == 0:
            return 0.0
        return 1.0 - self.largest_hole / free

    # ------------------------------------------------------ observability

    def attach_gauges(self, fragmentation=None, free_units=None,
                      largest_hole=None) -> None:
        """Bind registry gauges (see :mod:`repro.obs`) that track this
        area's fragmentation state; they are updated eagerly after every
        allocate/free, so a snapshot at any sim time is current."""
        self._gauges = (fragmentation, free_units, largest_hole)
        self._publish()

    def detach_gauges(self) -> tuple:
        """Unbind and return the gauges (for arena rebuilds)."""
        gauges = self._gauges or (None, None, None)
        self._gauges = None
        return gauges

    def _publish(self) -> None:
        if self._gauges is None:
            return
        fragmentation, free_units, largest_hole = self._gauges
        if fragmentation is not None:
            fragmentation.set(self.external_fragmentation())
        if free_units is not None:
            free_units.set(self.free_units)
        if largest_hole is not None:
            largest_hole.set(self.largest_hole)

    def is_free(self, start: int, length: int) -> bool:
        """True when [start, start+length) lies entirely inside a hole."""
        if length <= 0:
            return False
        i = bisect.bisect_right(self._starts, start) - 1
        if i < 0:
            return False
        return self._starts[i] <= start and start + length <= self._starts[i] + self._lengths[i]

    # --------------------------------------------------------- allocation

    def allocate(self, length: int) -> int:
        """Carve ``length`` units out of a hole; returns the start.

        Raises :class:`NoSpaceError` when no single hole is large enough
        — which can happen from fragmentation even when total free space
        suffices (the case compaction exists to fix).
        """
        if length <= 0:
            raise BadRequestError(f"allocation length must be positive: {length}")
        index = self._pick_hole(length)
        if index is None:
            if self.free_units >= length:
                raise NoSpaceError(
                    f"no contiguous hole of {length} units "
                    f"(fragmented: {self.free_units} free in "
                    f"{self.hole_count} holes, largest {self.largest_hole})"
                )
            raise NoSpaceError(
                f"out of space: {length} units requested, {self.free_units} free"
            )
        start = self._starts[index]
        if self._lengths[index] == length:
            del self._starts[index]
            del self._lengths[index]
        else:
            self._starts[index] += length
            self._lengths[index] -= length
        self._publish()
        return start

    def allocate_at(self, start: int, length: int) -> None:
        """Claim a specific extent (startup scan replaying live inodes)."""
        if length <= 0:
            raise BadRequestError(f"allocation length must be positive: {length}")
        i = bisect.bisect_right(self._starts, start) - 1
        if i < 0 or not (
            self._starts[i] <= start
            and start + length <= self._starts[i] + self._lengths[i]
        ):
            raise ConsistencyError(
                f"extent [{start}, {start + length}) is not free"
            )
        hole_start = self._starts[i]
        hole_len = self._lengths[i]
        del self._starts[i]
        del self._lengths[i]
        right_start = start + length
        right_len = hole_start + hole_len - right_start
        if right_len > 0:
            self._starts.insert(i, right_start)
            self._lengths.insert(i, right_len)
        left_len = start - hole_start
        if left_len > 0:
            self._starts.insert(i, hole_start)
            self._lengths.insert(i, left_len)
        self._publish()

    def free(self, start: int, length: int) -> None:
        """Return [start, start+length) to the free list, coalescing with
        neighbours."""
        if length <= 0:
            raise BadRequestError(f"free length must be positive: {length}")
        if start < self.area_start or start + length > self.area_start + self.area_size:
            raise BadRequestError(
                f"extent [{start}, {start + length}) outside the managed area"
            )
        i = bisect.bisect_left(self._starts, start)
        # Overlap checks against both neighbours.
        if i > 0 and self._starts[i - 1] + self._lengths[i - 1] > start:
            raise ConsistencyError(
                f"double free: [{start}, {start + length}) overlaps a hole"
            )
        if i < len(self._starts) and start + length > self._starts[i]:
            raise ConsistencyError(
                f"double free: [{start}, {start + length}) overlaps a hole"
            )
        merge_left = i > 0 and self._starts[i - 1] + self._lengths[i - 1] == start
        merge_right = i < len(self._starts) and start + length == self._starts[i]
        if merge_left and merge_right:
            self._lengths[i - 1] += length + self._lengths[i]
            del self._starts[i]
            del self._lengths[i]
        elif merge_left:
            self._lengths[i - 1] += length
        elif merge_right:
            self._starts[i] = start
            self._lengths[i] += length
        else:
            self._starts.insert(i, start)
            self._lengths.insert(i, length)
        self._publish()

    def _pick_hole(self, length: int) -> Optional[int]:
        if self.strategy == "first_fit":
            for i, hole_len in enumerate(self._lengths):
                if hole_len >= length:
                    return i
            return None
        best: Optional[int] = None
        for i, hole_len in enumerate(self._lengths):
            if hole_len >= length and (best is None or hole_len < self._lengths[best]):
                best = i
        return best

    # --------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Raise :class:`ConsistencyError` if the structure is corrupt:
        holes must be sorted, in-bounds, non-overlapping, and coalesced."""
        prev_end: Optional[int] = None
        for start, length in zip(self._starts, self._lengths):
            if length <= 0:
                raise ConsistencyError(f"non-positive hole length {length}")
            if start < self.area_start or start + length > self.area_start + self.area_size:
                raise ConsistencyError(
                    f"hole [{start}, {start + length}) outside the managed area"
                )
            if prev_end is not None:
                if start < prev_end:
                    raise ConsistencyError("holes overlap")
                if start == prev_end:
                    raise ConsistencyError("adjacent holes not coalesced")
            prev_end = start + length
