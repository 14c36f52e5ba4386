"""The write-count disk fault: kill a disk when its Nth write completes.

Event-driven: a completion hook on the disk fires synchronously when the
Nth write completes — exact by construction, and free when no fault is
armed. :class:`~repro.faults.FaultPlan`'s ``disk.fail_after_writes``
event arms it at a planned time; tests that want it armed *now* call
:func:`arm_fail_after_writes` directly.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["arm_fail_after_writes"]


def arm_fail_after_writes(disk, writes: int,
                          reason: str = "write-count fault",
                          on_fire: Optional[Callable[[], None]] = None) -> None:
    """Kill ``disk`` the instant its ``writes``-th subsequent write
    completes, via the disk's op-completion hook (no polling).

    The hook deregisters itself when it fires (or when the disk dies of
    some other cause first). ``on_fire`` lets callers (the
    :class:`~repro.faults.FaultController`) record the firing.
    """
    if writes < 1:
        raise ValueError(f"writes must be >= 1, got {writes}")
    remaining = writes

    def hook(kind: str) -> None:
        nonlocal remaining
        if disk.failed:
            disk.remove_op_hook(hook)
            return
        if kind != "write":
            return
        remaining -= 1
        if remaining == 0:
            disk.remove_op_hook(hook)
            disk.fail(reason)
            if on_fire is not None:
                on_fire()

    disk.add_op_hook(hook)
