"""Unified deterministic fault plane (subsumes the old ``disk/faults.py``).

A :class:`FaultPlan` is a declarative schedule of scoped fault events —
disk fail/degrade/flaky-extent, Ethernet partition/loss-window/
latency-spike, server crash/restart with cache loss — executed by a
:class:`FaultController` against the components it is attached to. Every
fault fires at a planned simulated time (or after a planned number of
disk writes), so availability experiments (A6) replay bit-identically:
same seed + same plan ⇒ the same trace of fault firings and client
retry attempts.
"""

from .controller import FaultController
from .injector import arm_fail_after_writes
from .plan import FaultEvent, FaultPlan

__all__ = [
    "FaultController",
    "FaultEvent",
    "FaultPlan",
    "arm_fail_after_writes",
]
