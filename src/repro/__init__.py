"""repro — a full reproduction of the Bullet file server.

van Renesse, Tanenbaum, Wilschut, *The Design of a High-Performance File
Server*, ICDCS 1989: an immutable, contiguous, whole-file-transfer file
server (from the Amoeba project), rebuilt in Python together with every
substrate it needs — a discrete-event simulator, virtual disks, a shared
Ethernet with Amoeba-style RPC, sparse capabilities, a directory/version
service, a SUN-NFS-style baseline, a log server, and a UNIX emulation —
plus the benchmark harness that regenerates the paper's figures.

Quick start (see examples/quickstart.py for the full version)::

    from repro import (
        BulletServer, BulletClient, Environment, Ethernet, MirroredDiskSet,
        RpcTransport, DEFAULT_TESTBED, VirtualDisk, run_process,
    )

    env = Environment()
    eth = Ethernet(env, DEFAULT_TESTBED.ethernet)
    rpc = RpcTransport(env, eth, DEFAULT_TESTBED.cpu)
    disks = [VirtualDisk(env, DEFAULT_TESTBED.disk, name=f"d{i}") for i in (0, 1)]
    server = BulletServer(env, MirroredDiskSet(env, disks), DEFAULT_TESTBED,
                          transport=rpc)
    server.format()
    run_process(env, server.boot())

    client = BulletClient(env, rpc, server.port)
    cap = run_process(env, client.create(b"an immutable file", 2))
    assert run_process(env, client.read(cap)) == b"an immutable file"
"""

from .capability import RIGHT_READ, restrict
from .client import (
    BulletClient,
    CachingBulletClient,
    DirectoryClient,
    LocalBulletStub,
    WorkstationCache,
)
from .client.retry import RetryPolicy
from .core import BulletServer
from .directory import DirectoryServer
from .disk import MirroredDiskSet, VirtualDisk
from .errors import ReproError, Status
from .faults import FaultController, FaultPlan
from .gc import gc_sweep
from .net import Ethernet, RpcTransport
from .nfs import NfsClient, NfsServer
from .profiles import DEFAULT_TESTBED
from .sim import Environment, SeededStream, Tracer, run_process
from .unixemu import UnixEmulation

__version__ = "1.0.0"

#: What README, the examples and ``perf/api.py`` import from the top
#: level. Everything else lives in its subpackage (``repro.core``,
#: ``repro.capability``, ``repro.errors``, ``repro.profiles``, ...).
__all__ = [
    "RIGHT_READ", "restrict",
    "BulletClient", "CachingBulletClient", "DirectoryClient",
    "LocalBulletStub", "RetryPolicy", "WorkstationCache",
    "BulletServer", "DirectoryServer", "NfsClient", "NfsServer",
    "UnixEmulation",
    "FaultController", "FaultPlan",
    "MirroredDiskSet", "VirtualDisk", "Ethernet", "RpcTransport",
    "Environment", "SeededStream", "Tracer", "run_process",
    "gc_sweep",
    "DEFAULT_TESTBED",
    "ReproError", "Status",
    "__version__",
]
