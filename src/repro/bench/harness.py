"""The measurement harness (S14): builds the paper's testbed, times
client processes on it, and measures Figures 2 and 3.

The rig reproduces the measurement setup of §4:

* a Bullet server on a dedicated 16.7 MHz MC68020 with 16 MB RAM and two
  800 MB disks, reached over a normally loaded 10 Mb/s Ethernet;
* a SUN-NFS-style server (3 MB buffer cache, one disk, write-through),
  measured from a diskless client with local caching disabled (lockf),
  with background churn standing in for the shared departmental load.

Delays are simulated milliseconds; bandwidths derive from them. Repeats
are averaged; everything is seeded, so tables reproduce bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..client import (BulletClient, CachingBulletClient, DirectoryClient,
                      LocalBulletStub, NamedFileClient, WorkstationCache)
from ..core import BulletServer
from ..directory import DirectoryServer
from ..disk import MirroredDiskSet, VirtualDisk
from ..errors import BadRequestError, ConsistencyError
from ..net import Ethernet, RpcTransport
from ..nfs import NfsClient, NfsServer
from ..obs import MetricsRegistry
from ..profiles import DEFAULT_TESTBED, Testbed
from ..sim import Environment, SeededStream, run_process
from .tables import MeasurementTable

__all__ = [
    "SEED",
    "THINK_S",
    "Rig",
    "make_rig",
    "require",
    "timed",
    "closed_loop",
    "bullet_figure2",
    "nfs_figure3",
]

#: The one seed every committed artifact was generated from.
SEED = 1989

#: Client compute between reads in the hot-set experiments, so a loop
#: of cache hits does not spin in zero simulated time.
THINK_S = 2e-3


def require(holds: bool, claim: str) -> None:
    """An experiment's shape check: ``claim`` holds, or the run raises
    instead of emitting an artifact that contradicts it."""
    if not holds:
        raise ConsistencyError(claim)


@dataclass
class Rig:
    """One assembled testbed."""

    env: Environment
    testbed: Testbed
    ethernet: Ethernet
    rpc: RpcTransport
    seed: int
    metrics: Optional[MetricsRegistry] = None
    bullet: Optional[BulletServer] = None
    bullet_client: Optional[BulletClient] = None
    nfs: Optional[NfsServer] = None
    nfs_client: Optional[NfsClient] = None
    directory: Optional[DirectoryServer] = None
    directory_client: Optional[DirectoryClient] = None

    def workstation(self, name: str, cache_bytes: int, root=None,
                    policy=None):
        """One §5 workstation on this rig: a ``cache_bytes``
        :class:`~repro.client.WorkstationCache` on the shared registry
        under a :class:`~repro.client.CachingBulletClient`. Given a
        directory capability ``root``, returns the workstation's
        open-by-name :class:`~repro.client.NamedFileClient` session
        over that client (currency ``policy``) instead of the client."""
        caching = CachingBulletClient(
            self.bullet_client,
            cache=WorkstationCache(cache_bytes, name=name,
                                   metrics=self.metrics,
                                   cpu=self.testbed.cpu))
        if root is None:
            return caching
        return NamedFileClient(caching, self.directory_client, root,
                               policy=policy, name=name)


def make_rig(seed: int = SEED, testbed: Testbed = DEFAULT_TESTBED,
             background_load: bool = True, with_bullet: bool = True,
             with_nfs: bool = True, nfs_churn: bool = True,
             cache_policy: str = "lru", workers: int = 1,
             disk_discipline: str = "fcfs",
             with_directory: bool = False) -> Rig:
    """Build the §4 testbed (or a subset of it).

    ``workers`` sizes the Bullet server's service pool (1 = the paper's
    single-threaded loop); ``disk_discipline`` picks the per-disk queue
    ("fcfs" or "elevator" — the latter only matters once concurrent
    workers actually queue disk requests). ``with_directory`` adds a
    directory server (its rows stored on the Bullet server through the
    local plane, its own private slot disk) plus a
    :class:`~repro.client.DirectoryClient` over the shared transport —
    the naming/coherence half of the testbed.

    Every component shares one :class:`~repro.obs.MetricsRegistry`
    (``rig.metrics``), so a single export covers the whole testbed.
    """
    env = Environment()
    metrics = MetricsRegistry()
    ethernet = Ethernet(
        env, testbed.ethernet,
        stream=SeededStream(seed, "ethernet") if background_load else None,
        background_load=background_load,
        metrics=metrics,
    )
    rpc = RpcTransport(env, ethernet, testbed.cpu, metrics=metrics)
    rig = Rig(env=env, testbed=testbed, ethernet=ethernet, rpc=rpc, seed=seed,
              metrics=metrics)
    if with_bullet:
        disks = [VirtualDisk(env, testbed.disk, name=f"bullet-d{i}",
                             discipline=disk_discipline, metrics=metrics)
                 for i in range(2)]
        mirror = MirroredDiskSet(env, disks)
        rig.bullet = BulletServer(env, mirror, testbed, transport=rpc,
                                  master_seed=seed, cache_policy=cache_policy,
                                  metrics=metrics, workers=workers)
        rig.bullet.format()
        env.run(until=env.process(rig.bullet.boot()))
        rig.bullet_client = BulletClient(env, rpc, rig.bullet.port,
                                         metrics=metrics)
    if with_directory:
        if rig.bullet is None:
            raise BadRequestError("a directory rig needs the Bullet server")
        dir_disk = VirtualDisk(env, testbed.disk, name="dir-disk",
                               metrics=metrics)
        rig.directory = DirectoryServer(env, dir_disk,
                                        LocalBulletStub(rig.bullet),
                                        testbed, transport=rpc,
                                        master_seed=seed)
        rig.directory.format()
        env.run(until=env.process(rig.directory.boot()))
        rig.directory_client = DirectoryClient(
            env, rpc, default_port=rig.directory.port)
    if with_nfs:
        nfs_disk = VirtualDisk(env, testbed.disk, name="nfs-disk",
                               metrics=metrics)
        rig.nfs = NfsServer(env, nfs_disk, testbed, transport=rpc,
                            background_churn=nfs_churn, master_seed=seed,
                            metrics=metrics)
        rig.nfs.format()
        env.run(until=env.process(rig.nfs.boot()))
        rig.nfs_client = NfsClient(env, testbed, rpc=rpc,
                                   server_port=rig.nfs.port)
    return rig


def timed(env: Environment, gen):
    """Run one client process; returns (elapsed_seconds, result)."""
    start = env.now
    result = run_process(env, gen)
    return env.now - start, result


def closed_loop(env: Environment, clients,
                window: Optional[float] = None) -> float:
    """Run a closed-loop client population; returns the simulated
    seconds measured.

    ``clients`` are generators, started as processes in list order (the
    order fixes same-instant scheduling, so artifacts depend on it).
    With a ``window`` the clients loop forever and the run is cut after
    ``window`` seconds; without one every client runs to completion.
    """
    start = env.now
    waits = [env.process(client) for client in clients]
    if window is not None:
        env.run(until=start + window)
        return window
    for wait in waits:
        env.run(until=wait)
    return env.now - start


# ------------------------------------------------------------- Figure 2


def bullet_figure2(rig: Rig, sizes, repeats: int) -> MeasurementTable:
    """Fig. 2: Bullet READ and CREATE+DEL delay per file size.

    READ is measured with the file fully in the server's RAM cache
    ("In all cases the test file will be completely in memory, and no
    disk accesses are necessary"); CREATE+DEL writes through to both
    disks — P-FACTOR 2 ("the file is written to both disks. Note that
    both creation and deletion involve requests to two disks.").
    """
    if rig.bullet_client is None:
        raise BadRequestError("rig was built without Bullet")
    env, client = rig.env, rig.bullet_client
    table = MeasurementTable(title="Bullet file server", columns=["READ", "CREATE+DEL"])
    for size in sizes:
        payload = bytes(size)
        # --- READ: create once (warms the cache), then timed reads.
        _setup, cap = timed(env, client.create(payload, 2))
        total = 0.0
        for _ in range(repeats):
            elapsed, data = timed(env, client.read(cap))
            if len(data) != size:
                raise ConsistencyError(
                    f"READ returned {len(data)} bytes, expected {size}"
                )
            total += elapsed
        table.record(size, "READ", total / repeats)
        timed(env, client.delete(cap))
        # --- CREATE+DEL measured together, as in the paper.
        total = 0.0
        for _ in range(repeats):
            def create_and_delete():
                c = yield from client.create(payload, 2)
                yield from client.delete(c)

            elapsed, _ = timed(env, create_and_delete())
            total += elapsed
        table.record(size, "CREATE+DEL", total / repeats)
    return table


# ------------------------------------------------------------- Figure 3


def nfs_figure3(rig: Rig, sizes, repeats: int) -> MeasurementTable:
    """Fig. 3: SUN NFS READ and CREATE delay per file size.

    "The read test consisted of an lseek followed by a read system
    call. The write test consisted of consecutively executing creat,
    write, and close." Local client caching is off (lockf).
    """
    if rig.nfs_client is None:
        raise BadRequestError("rig was built without NFS")
    env, client = rig.env, rig.nfs_client
    table = MeasurementTable(title="SUN NFS file server", columns=["READ", "CREATE"])
    for i, size in enumerate(sizes):
        payload = bytes(size)
        path = f"/bench_{i}_{size}"

        # Setup: put the file in place (and warm the server cache).
        def setup():
            fd = yield from client.creat(path)
            yield from client.write(fd, payload)
            yield from client.close(fd)
            return (yield from client.open(path))

        _elapsed, fd = timed(env, setup())

        def lseek_read():
            yield from client.lseek(fd, 0)
            data = yield from client.read(fd, size)
            if len(data) != size:
                raise ConsistencyError(
                    f"READ returned {len(data)} bytes, expected {size}"
                )

        total = 0.0
        for _ in range(repeats):
            elapsed, _ = timed(env, lseek_read())
            total += elapsed
        table.record(size, "READ", total / repeats)
        timed(env, client.close(fd))
        timed(env, client.unlink(path))

        # CREATE: creat + write + close, cleanup unmeasured.
        total = 0.0
        for r in range(repeats):
            cpath = f"/create_{i}_{r}"

            def creat_write_close():
                cfd = yield from client.creat(cpath)
                yield from client.write(cfd, payload)
                yield from client.close(cfd)

            elapsed, _ = timed(env, creat_write_close())
            total += elapsed
            timed(env, client.unlink(cpath))
        table.record(size, "CREATE", total / repeats)
    return table
