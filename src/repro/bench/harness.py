"""The measurement harness (S14): builds the paper's testbed and runs
the §4 experiments.

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

from ..capability import RIGHT_READ
from ..client import (BulletClient, CachingBulletClient, DirectoryClient,
                      LocalBulletStub, WorkstationCache)
from ..core import BulletServer
from ..directory import DirectoryServer
from ..disk import MirroredDiskSet, VirtualDisk
from ..errors import BadRequestError, ConsistencyError
from ..net import Ethernet, RpcTransport
from ..nfs import NfsClient, NfsServer
from ..obs import MetricsRegistry
from ..profiles import DEFAULT_TESTBED, Testbed
from ..sim import Environment, SeededStream, run_process
from ..units import KB
from .tables import MeasurementTable
from .workload import PAPER_SIZES

__all__ = [
    "Rig",
    "make_rig",
    "timed",
    "bullet_figure2",
    "nfs_figure3",
    "throughput_vs_clients",
    "throughput_vs_workers",
    "cold_read_disciplines",
    "client_cache_scaling",
    "PAPER_SIZES",
]


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


def make_rig(seed: int = 1989, testbed: Testbed = DEFAULT_TESTBED,
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


# ------------------------------------------------------------- Figure 2


def bullet_figure2(rig: Rig, sizes=None, repeats: int = 3,
                   p_factor: int = 2) -> MeasurementTable:
    """Fig. 2: Bullet READ and CREATE+DEL delay per file size.

    READ is measured with the file fully in the server's RAM cache
    ("In all cases the test file will be completely in memory, and no
    disk accesses are necessary"); CREATE+DEL writes through to both
    disks ("the file is written to both disks. Note that both creation
    and deletion involve requests to two disks.").
    """
    if rig.bullet_client is None:
        raise BadRequestError("rig was built without Bullet")
    env, client = rig.env, rig.bullet_client
    table = MeasurementTable(title="Bullet file server", columns=["READ", "CREATE+DEL"])
    for size in sizes or PAPER_SIZES:
        payload = bytes(size)
        # --- READ: create once (warms the cache), then timed reads.
        _setup, cap = timed(env, client.create(payload, p_factor))
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
                c = yield from client.create(payload, p_factor)
                yield from client.delete(c)

            elapsed, _ = timed(env, create_and_delete())
            total += elapsed
        table.record(size, "CREATE+DEL", total / repeats)
    return table


# ------------------------------------------------------------- Figure 3


def nfs_figure3(rig: Rig, sizes=None, repeats: int = 3) -> MeasurementTable:
    """Fig. 3: SUN NFS READ and CREATE delay per file size.

    "The read test consisted of an lseek followed by a read system
    call. The write test consisted of consecutively executing creat,
    write, and close." Local client caching is off (lockf).
    """
    if rig.nfs_client is None:
        raise BadRequestError("rig was built without NFS")
    env, client = rig.env, rig.nfs_client
    table = MeasurementTable(title="SUN NFS file server", columns=["READ", "CREATE"])
    for i, size in enumerate(sizes or PAPER_SIZES):
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


# ----------------------------------------------------- A5: scalability


def throughput_vs_clients(client_counts, file_size: int = 4 * KB,
                          duration: float = 20.0, seed: int = 1989,
                          testbed: Testbed = DEFAULT_TESTBED) -> dict:
    """Sustained read throughput (ops/sec) as concurrent clients grow.

    Each client loops whole-file reads of a private cached file; the
    shared Ethernet and the single-threaded server are the contended
    resources, exactly the paper's quantitative-scalability concern.
    """
    results = {}
    for n in client_counts:
        rig = make_rig(seed=seed, testbed=testbed, with_nfs=False,
                       background_load=False)
        env, client = rig.env, rig.bullet_client
        caps = [run_process(env, client.create(bytes(file_size), 1))
                for _ in range(n)]
        completed = [0] * n

        def client_loop(index):
            while True:
                yield from client.read(caps[index])
                completed[index] += 1

        start = env.now
        for index in range(n):
            # Intentional fork: n concurrent client loops race for the
            # measurement window; env.run(until=...) below bounds them.
            env.process(client_loop(index))  # repro: allow(S001)
        env.run(until=start + duration)
        results[n] = sum(completed) / duration
    return results


# --------------------------------------------- PR 5: worker-pool scaling


def throughput_vs_workers(worker_counts=(1, 2, 4), n_clients: int = 8,
                          file_size: int = 256, duration: float = 5.0,
                          seed: int = 1989,
                          testbed: Testbed = DEFAULT_TESTBED) -> dict:
    """Sustained cache-hit READ throughput (ops/sec) as the server's
    worker pool grows, under a fixed closed-loop client population.

    This is the first measurement past the paper's envelope: with one
    worker the server serializes dispatch, capability check, memcpy,
    and the per-packet network send; with N workers those phases
    pipeline across requests and only the shared Ethernet remains. The
    file is small (one fragment) and cache-hot, so the worker-side CPU
    cost dominates the wire time and added workers genuinely help.
    """
    results = {}
    for workers in worker_counts:
        rig = make_rig(seed=seed, testbed=testbed, with_nfs=False,
                       background_load=False, workers=workers)
        env, client = rig.env, rig.bullet_client
        caps = [run_process(env, client.create(bytes(file_size), 2))
                for _ in range(n_clients)]
        # Warm each client's capability into the verified-cap cache so
        # the measured loop runs the steady-state (cached-check) path.
        for cap in caps:
            run_process(env, client.read(cap))
        completed = [0] * n_clients

        def client_loop(index):
            while True:
                yield from client.read(caps[index])
                completed[index] += 1

        start = env.now
        for index in range(n_clients):
            # Intentional fork: the measurement window below bounds them.
            env.process(client_loop(index))  # repro: allow(S001)
        env.run(until=start + duration)
        results[workers] = sum(completed) / duration
    return results


# ------------------------------------- PR 9: workstation cache scaling


def client_cache_scaling(cache_sizes, n_clients: Optional[int] = None,
                         hot_files: int = 24, file_size: int = 16 * KB,
                         ops_per_client: int = 150, think: float = 2e-3,
                         seed: int = 1989,
                         testbed: Testbed = DEFAULT_TESTBED) -> dict:
    """Served throughput and server load vs the workstation cache size.

    One simulated workstation runs ``n_clients`` client processes
    sharing a single :class:`~repro.client.WorkstationCache`. Each
    process performs ``ops_per_client`` Zipf-distributed whole-file
    reads over a hot set of ``hot_files`` files with a little client
    compute between reads (fixed total work, so the per-size numbers
    compare load for the *same* job, not for whatever a saturated
    server happened to admit). Even-numbered processes read under the
    owner capabilities; odd-numbered ones under read-only restrictions
    minted at setup (by the server: nothing is cached yet, so the cache
    cannot vouch for the owner capabilities and restrict() falls
    through) — so both local-verification paths run during the sweep:
    known-pair hits and verifier derivation from the secret learned
    off an owner admission.

    As the byte budget grows toward the working-set size the hit rate
    rises, the server's READ load falls, and served ops/sec climbs —
    the §5 claim that client caching lifts the server ceiling,
    measured. Returns per-cache-size dicts of served ops/sec, server-
    side load, and the workstation cache counters.
    """
    n_clients = (testbed.workstation.processes
                 if n_clients is None else n_clients)
    results: dict = {}
    for cache_bytes in cache_sizes:
        rig = make_rig(seed=seed, testbed=testbed, with_nfs=False,
                       background_load=False)
        env, client, bullet = rig.env, rig.bullet_client, rig.bullet
        owners = [run_process(env, client.create(bytes([i % 251]) * file_size, 1))
                  for i in range(hot_files)]
        shared = CachingBulletClient(
            client, cache=WorkstationCache(
                cache_bytes, name="ws0", metrics=rig.metrics,
                cpu=testbed.cpu),
        )
        readers = [run_process(env, shared.restrict(cap, RIGHT_READ))
                   for cap in owners]
        served_before = bullet.stats.reads

        def client_loop(index):
            caps = owners if index % 2 == 0 else readers
            stream = SeededStream(seed, f"ws0:client{index}")
            for _ in range(ops_per_client):
                cap = caps[stream.zipf_index(hot_files)]
                yield from shared.read(cap)
                # Client compute between reads, so a hit loop does not
                # spin in zero simulated time.
                yield env.timeout(think)

        start = env.now
        waits = [env.process(client_loop(index))
                 for index in range(n_clients)]
        for wait in waits:
            env.run(until=wait)
        elapsed = env.now - start
        stats = shared.cache.stats
        total_ops = n_clients * ops_per_client
        results[cache_bytes] = {
            "served_ops_per_sec": total_ops / elapsed,
            "server_reads": bullet.stats.reads - served_before,
            "lookups": stats.lookups,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "bytes_saved": stats.bytes_saved,
            "rpcs_avoided": stats.rpcs_avoided,
            "local_verifies": stats.local_verifies,
            "cached_bytes": shared.cache.cached_bytes,
        }
    return results


def cold_read_disciplines(n_clients: int = 8, n_files: int = 48,
                          file_size: int = 16 * KB, workers: int = 4,
                          seed: int = 1989,
                          testbed: Testbed = DEFAULT_TESTBED) -> dict:
    """Cold-read storm, FCFS vs elevator disk scheduling.

    Every read misses the cache (files are evicted after each pass), so
    a pool of concurrent workers keeps a real queue on each disk — the
    first workload in the reproduction where the disk scheduler has
    requests to reorder. Reports per-discipline ops/sec and the number
    of arm seeks performed.
    """
    results: dict = {}
    for discipline in ("fcfs", "elevator"):
        rig = make_rig(seed=seed, testbed=testbed, with_nfs=False,
                       background_load=False, workers=workers,
                       disk_discipline=discipline)
        env, client, bullet = rig.env, rig.bullet_client, rig.bullet
        caps = [run_process(env, client.create(bytes(file_size), 2))
                for _ in range(n_files)]
        for cap in caps:
            bullet.evict(cap.object)
        done = [0]

        def storm(index):
            # Client i walks the file list from a different phase, so
            # concurrent misses hit scattered cylinders.
            for step in range(n_files):
                cap = caps[(index * (n_files // n_clients) + step) % n_files]
                yield from client.read(cap)
                bullet.evict(cap.object)
                done[0] += 1

        waits = [env.process(storm(index)) for index in range(n_clients)]
        start = env.now
        for wait in waits:
            env.run(until=wait)
        elapsed = env.now - start
        seeks = sum(disk.stats.seeks for disk in bullet.mirror.disks)
        results[discipline] = {
            "ops_per_sec": done[0] / elapsed if elapsed else 0.0,
            "seeks": seeks,
        }
    return results
