"""The original fault-injection API, now event-driven.

:class:`FaultInjector` predates :class:`~repro.faults.FaultPlan`; it is
kept as the convenient imperative spelling for one-off disk faults in
tests and examples. ``fail_after_writes`` no longer polls the
simulation clock at ``seek_settle / 2`` granularity: it registers a
completion hook on the disk and fires synchronously when the Nth write
completes — exact by construction, and free when no fault is armed.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Environment

__all__ = ["FaultInjector", "arm_fail_after_writes"]


def arm_fail_after_writes(disk, writes: int, reason: str,
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


class FaultInjector:
    """Schedules disk failures (compatibility shim over the fault plane)."""

    def __init__(self, env: Environment):
        self.env = env

    def fail_at(self, disk, when: float, reason: str = "timed fault"):
        """Kill ``disk`` at absolute simulated time ``when``."""
        if when < self.env.now:
            raise ValueError(f"fault time {when} is in the past")

        def killer():
            yield self.env.timeout(when - self.env.now)
            disk.fail(reason)

        return self.env.process(killer())

    def fail_after_writes(self, disk, writes: int,
                          reason: str = "write-count fault") -> None:
        """Kill ``disk`` once it has completed ``writes`` more writes.

        Event-driven: fires exactly when the Nth write completes, with
        no intervening simulated time (the next submitted request
        already sees a dead disk).
        """
        arm_fail_after_writes(disk, writes, reason)
