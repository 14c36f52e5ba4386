"""The benchmark's single import of the program under test.

Everything the benchmark touches comes through this module, and only
from package-level public names (``repro``, ``repro.client``,
``repro.obs``, ``repro.sim``, ``repro.units``). The program's own bench
helpers (``repro.bench``, ``repro.obs.bench``) and every ``_private``
seam are off limits, so refactoring them cannot move the yardstick.
Event counts come from ``Environment.events_scheduled``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root (the directory holding ``perf/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    # Never fall back to some other installed ``repro``: the benchmark
    # measures the program of *this* checkout or nothing.
    raise ImportError(f"no program to measure: {SRC / 'repro'} is missing")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import (  # noqa: E402
    DEFAULT_TESTBED,
    RIGHT_READ,
    BulletClient,
    BulletServer,
    CachingBulletClient,
    DirectoryClient,
    DirectoryServer,
    Environment,
    Ethernet,
    LocalBulletStub,
    MirroredDiskSet,
    NfsClient,
    NfsServer,
    ReproError,
    RpcTransport,
    SeededStream,
    Tracer,
    VirtualDisk,
    WorkstationCache,
    run_process,
)
from repro.client import CurrencyPolicy, NamedFileClient  # noqa: E402
from repro.obs import MetricsRegistry, pair_spans  # noqa: E402
from repro.units import KB, MB  # noqa: E402

__all__ = [
    "ROOT", "SRC",
    "DEFAULT_TESTBED", "RIGHT_READ", "BulletClient", "BulletServer",
    "CachingBulletClient", "CurrencyPolicy", "DirectoryClient",
    "DirectoryServer", "Environment", "Ethernet", "LocalBulletStub",
    "MetricsRegistry", "MirroredDiskSet", "NamedFileClient", "NfsClient",
    "NfsServer", "ReproError", "RpcTransport", "SeededStream", "Tracer",
    "VirtualDisk", "WorkstationCache", "pair_spans", "run_process",
    "KB", "MB",
]
