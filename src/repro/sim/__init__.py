"""Discrete-event simulation kernel (substrate S1).

See :mod:`repro.sim.core` for the event/process model,
:mod:`repro.sim.resources` for shared resources,
:mod:`repro.sim.rng` for deterministic randomness, and
:mod:`repro.sim.trace` for telemetry.
"""

from .core import (
    AllOf,
    AnyOf,
    CountOf,
    Environment,
    Event,
    Interrupt,
    Timeout,
    run_process,
)
from .resources import Resource, Store
from .rng import SeededStream, derive_seed
from .trace import Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "CountOf",
    "Environment",
    "Event",
    "Interrupt",
    "Timeout",
    "run_process",
    "Resource",
    "Store",
    "SeededStream",
    "derive_seed",
    "Tracer",
]
