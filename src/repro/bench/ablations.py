"""The ablations A1–A12 of DESIGN.md §4: one design choice of the paper
each, isolated and measured. Each function returns the text of its
table under ``benchmarks/results/`` and raises
:class:`~repro.errors.ConsistencyError` (through
:func:`~repro.bench.harness.require`) when the effect the paper argues
from is not there. Scale is module constants, each group beside the
experiment it sizes.
"""

from __future__ import annotations

from dataclasses import replace

from ..client import BulletClient, CachingBulletClient, WorkstationCache
from ..core import BulletCache, BulletServer, compact_disk
from ..disk import VirtualDisk
from ..errors import NoSpaceError
from ..logsvc import LOG_OPCODES, LogServer
from ..net import (Ethernet, RpcRequest, RpcTransport, WideAreaProfile,
                   connect_sites)
from ..nfs import MODE_FILE, NfsClient
from ..profiles import DEFAULT_TESTBED
from ..sim import SeededStream, run_process
from ..units import KB, MB, to_msec
from .harness import (SEED, THINK_S, bullet_figure2, closed_loop, make_rig,
                      nfs_figure3, require, timed)
from .workload import FileSizeDistribution, TraceGenerator, replay_bullet

__all__ = ["ablation_contiguity", "ablation_pfactor", "ablation_cache",
           "ablation_fragmentation", "scalability_clients",
           "failover_recovery", "log_append", "wide_area", "client_caching",
           "ablation_lockf", "sensitivity", "ablation_cache_size"]

# ------------------------------------- A1: contiguous vs scattered (§2)

CONTIGUITY_SIZES = (64 * KB, 256 * KB, 1 * MB)


def ablation_contiguity() -> str:
    """A1 — contiguous extents vs scattered blocks, network held
    constant. §2 argues contiguous placement turns a file read into one
    seek + one rotational latency + streaming transfer where the block
    model pays per-block positioning and metadata. Both servers sit on
    identical disks and only the server-side disk path is measured
    (local planes, cold caches), so the layout effect is isolated."""
    rig = make_rig(seed=SEED, background_load=False, nfs_churn=False)
    env, fs = rig.env, rig.nfs.incarnation.fs
    results = {}
    for size in CONTIGUITY_SIZES:
        # Bullet: contiguous extent, cold cache -> one disk access.
        cap = run_process(env, rig.bullet.create(bytes(size), 2))
        rig.bullet.evict(cap.object)
        contiguous, _ = timed(env, rig.bullet.read(cap))
        # FFS: same bytes scattered per cylinder-group policy, read
        # with an empty buffer cache -> per-block disk accesses.
        inum, _inode = run_process(env, fs.alloc_inode(MODE_FILE))
        run_process(env, fs.write(inum, 0, bytes(size)))
        rig.nfs.incarnation.cache._blocks.clear()
        scattered, _ = timed(env, fs.read(inum, 0, size))
        results[size] = (contiguous, scattered)
    ratios = [scattered / contiguous
              for contiguous, scattered in results.values()]
    require(all(ratio > 1.3 for ratio in ratios),
            f"the scattered layout does not lose at every size: {ratios}")
    require(ratios[-1] >= ratios[0] * 0.9,
            f"the layout advantage collapses at large sizes: {ratios}")
    lines = ["Ablation A1: contiguous vs scattered layout (cold server reads)",
             "=" * 66,
             f"{'size':>10} {'contiguous (ms)':>18} {'scattered (ms)':>18} {'ratio':>8}"]
    for size, (contiguous, scattered) in results.items():
        lines.append(
            f"{size:>10} {to_msec(contiguous):>18.1f} "
            f"{to_msec(scattered):>18.1f} {scattered / contiguous:>7.1f}x")
    return "\n".join(lines)


# ---------------------------------------------- A2: the P-FACTOR (§2.2)

PFACTOR_SIZES = (1 * KB, 64 * KB, 1 * MB)
PFACTOR_REPEATS = 3

#: Simulated seconds left for a P=0 create's background writes to
#: drain, so the delete never races the in-flight write.
PFACTOR_DRAIN_S = 0.2


def ablation_pfactor() -> str:
    """A2 — CREATE latency as a function of paranoia: reply after the
    RAM cache (P=0), after one disk (P=1), after both (P=2)."""
    rig = make_rig(seed=SEED, with_nfs=False)
    env, client = rig.env, rig.bullet_client
    results = {}
    for size in PFACTOR_SIZES:
        per_p = []
        for p_factor in (0, 1, 2):
            total = 0.0
            for _ in range(PFACTOR_REPEATS):
                elapsed, cap = timed(env, client.create(bytes(size), p_factor))
                total += elapsed
                env.run(until=env.now + PFACTOR_DRAIN_S)
                run_process(env, client.delete(cap))
            per_p.append(total / PFACTOR_REPEATS)
        results[size] = per_p
    for size, (p0, p1, p2) in results.items():
        require(p0 < p1 <= p2 * 1.05,
                f"more paranoia got cheaper at {size} B: {p0}, {p1}, {p2}")
        # P=0 skips the disks entirely: far below P=1 for small files,
        # where the disk write dominates the create. (At 64 KB+ the
        # network transfer dominates and the gap narrows.)
        if size <= 4 * KB:
            require(p0 < 0.5 * p1,
                    f"P=0 is not far below P=1 at {size} B: {p0}, {p1}")
    lines = ["Ablation A2: CREATE latency vs P-FACTOR",
             "=" * 56,
             f"{'size':>10} {'P=0 (ms)':>12} {'P=1 (ms)':>12} {'P=2 (ms)':>12}"]
    for size, (p0, p1, p2) in results.items():
        lines.append(f"{size:>10} {to_msec(p0):>12.1f} {to_msec(p1):>12.1f} "
                     f"{to_msec(p2):>12.1f}")
    return "\n".join(lines)


# ------------------------------------- A3: the whole-file RAM cache (§3)

WARM_COLD_SIZES = (4 * KB, 64 * KB, 1 * MB)

#: The eviction-policy trace: 600 ops over 40 prepopulated files through
#: a 256 KB cache, small enough that both policies must evict.
POLICY_TRACE_SEED = 13
POLICY_TRACE_OPS = 600
POLICY_TRACE_PREPOPULATE = 40
POLICY_CACHE_BYTES = 256 * KB


def _policy_hit_rate(policy: str) -> float:
    """Hit rate of a Zipf-popular trace replayed through a
    capacity-limited :class:`~repro.core.BulletCache` under ``policy``."""
    trace = TraceGenerator(seed=POLICY_TRACE_SEED).generate(
        n_ops=POLICY_TRACE_OPS, prepopulate=POLICY_TRACE_PREPOPULATE)
    cache = BulletCache(POLICY_CACHE_BYTES, rnode_count=512, policy=policy)
    stored: dict = {}
    for op in trace:
        if op.kind == "create":
            stored[op.file_id] = op.size
            if (cache.peek(op.file_id) is None
                    and op.size <= POLICY_CACHE_BYTES):
                cache.insert(op.file_id, bytes(op.size))
        elif op.kind == "read":
            rnode = cache.lookup(op.file_id)
            if rnode is not None:
                cache.touch(rnode)
            elif stored[op.file_id] <= POLICY_CACHE_BYTES:
                cache.insert(op.file_id, bytes(stored[op.file_id]))
        else:
            cache.remove(op.file_id)
            stored.pop(op.file_id, None)
    return cache.stats.hit_rate


def ablation_cache() -> str:
    """A3 — the whole-file RAM cache: warm vs cold read latency per
    file size (the value of "the file will be completely in memory"),
    and LRU vs FIFO hit rate — the paper chose LRU ("an age field to
    implement an LRU cache strategy")."""
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False)
    env, client = rig.env, rig.bullet_client
    latencies = {}
    for size in WARM_COLD_SIZES:
        cap = run_process(env, client.create(bytes(size), 2))
        rig.bullet.evict(cap.object)
        cold, _ = timed(env, client.read(cap))
        warm, _ = timed(env, client.read(cap))
        run_process(env, client.delete(cap))
        require(warm < cold, f"the cache did not help at {size} B")
        latencies[size] = (cold, warm)
    # Small files: disk positioning dominates, so the cache wins big
    # (the residual warm cost is the RPC itself).
    cold, warm = latencies[4 * KB]
    require(cold / warm > 2, "a warm 4 KB read is not twice as fast")
    rates = {policy: _policy_hit_rate(policy) for policy in ("lru", "fifo")}
    require(rates["lru"] >= rates["fifo"] - 0.01,
            f"LRU loses to FIFO on a popularity-skewed trace: {rates}")
    lines = ["Ablation A3: the whole-file RAM cache", "=" * 56,
             f"{'size':>10} {'cold read (ms)':>16} {'warm read (ms)':>16} {'speedup':>9}"]
    for size, (cold, warm) in latencies.items():
        lines.append(f"{size:>10} {to_msec(cold):>16.1f} {to_msec(warm):>16.1f} "
                     f"{cold / warm:>8.1f}x")
    lines.append("")
    lines.append(f"Zipf-trace hit rate: LRU {rates['lru']:.3f} "
                 f"vs FIFO {rates['fifo']:.3f}")
    return "\n".join(lines)


# ------------------------------ A4: fragmentation and compaction (§3)

#: A 24 MB volume churned with 1–256 KB files (median 24 KB) until a
#: 1 MB allocation fails from fragmentation alone.
FRAGMENTATION_DISK = replace(DEFAULT_TESTBED.disk, capacity_bytes=24 * MB,
                             cylinders=96)
FRAGMENTATION_TARGET = 1 * MB
FRAGMENTATION_SEED = 31
FRAGMENTATION_DELETE_SHARE = 0.35


def _churn_until_fragmented(env, server, stream) -> dict:
    """Create/delete random-size files until the target no longer fits
    contiguously although the free bytes would hold it."""
    live: list = []

    def delete_one():
        require(bool(live), "volume exhausted without fragmenting")
        victim = live.pop(stream.randint(0, len(live) - 1))
        run_process(env, server.delete(victim))

    disk_free, layout = server.incarnation.disk_free, server.incarnation.layout
    while True:
        free_bytes = disk_free.free_units * layout.block_size
        largest = disk_free.largest_hole * layout.block_size
        if (free_bytes >= FRAGMENTATION_TARGET
                and largest < FRAGMENTATION_TARGET):
            return {
                "files": len(live),
                "free_bytes": free_bytes,
                "largest_hole": largest,
                "fragmentation": disk_free.external_fragmentation(),
            }
        size = int(stream.lognormal_bounded(24 * KB, 1.2, 1 * KB, 256 * KB))
        if (free_bytes < FRAGMENTATION_TARGET
                or stream.random() < FRAGMENTATION_DELETE_SHARE and live):
            delete_one()
            continue
        try:
            live.append(run_process(env, server.create(bytes(size), 1)))
        except NoSpaceError:
            delete_one()


def _fragment_and_compact(strategy: str) -> tuple:
    """Fragmentation metrics at the first unfittable allocation under
    ``strategy``, and the report of the compaction that makes it fit."""
    testbed = replace(DEFAULT_TESTBED, disk=FRAGMENTATION_DISK)
    rig = make_rig(seed=SEED, testbed=testbed, with_nfs=False,
                   background_load=False)
    env, server = rig.env, rig.bullet
    if strategy != "first_fit":
        # Reboot on the same disks with the free list rebuilt under the
        # requested strategy.
        server.crash()
        server = BulletServer(env, server.mirror, testbed, name="bullet-bf",
                              alloc_strategy=strategy)
        run_process(env, server.boot())
    metrics = _churn_until_fragmented(
        env, server, SeededStream(FRAGMENTATION_SEED, f"churn-{strategy}"))
    require(metrics["free_bytes"] >= FRAGMENTATION_TARGET,
            f"{strategy}: the volume is full, not fragmented")
    # The large create fails now...
    try:
        run_process(env, server.create(bytes(FRAGMENTATION_TARGET), 1))
        failed = False
    except NoSpaceError:
        failed = True
    require(failed, f"{strategy}: fragmentation never blocked the allocation")
    # ...and the 3 a.m. compaction fixes it.
    report = run_process(env, compact_disk(server))
    cap = run_process(env, server.create(bytes(FRAGMENTATION_TARGET), 1))
    require(run_process(env, server.size(cap)) == FRAGMENTATION_TARGET,
            f"{strategy}: compaction did not enable the allocation")
    require(report.fragmentation_after <= report.fragmentation_before,
            f"{strategy}: compaction raised fragmentation")
    return metrics, report


def ablation_fragmentation() -> str:
    """A4 — §3's trade-off: "the conscious choice of using contiguous
    files may require buying, say, an 800 MB disk to store 500 MB worth
    of files (the rest being lost to fragmentation unless compaction is
    done)." Churn until a large allocation fails purely from
    fragmentation, under first-fit (the paper's choice) and best-fit;
    then compact and show the allocation succeeds."""
    target_kb = FRAGMENTATION_TARGET // KB
    lines = ["Ablation A4: fragmentation and the 3 a.m. compaction",
             "=" * 64]
    for strategy in ("first_fit", "best_fit"):
        metrics, report = _fragment_and_compact(strategy)
        lines.extend([
            f"[{strategy}] at first unfittable {target_kb} KB allocation:",
            f"  live files            : {metrics['files']}",
            f"  free bytes            : {metrics['free_bytes']}",
            f"  largest hole (bytes)  : {metrics['largest_hole']}",
            f"  external fragmentation: {metrics['fragmentation']:.3f}",
            "  large create failed   : True",
            f"  compaction: moved {report.files_moved} files "
            f"({report.blocks_moved} blocks) in {to_msec(report.duration):.0f} ms sim",
            f"  post-compaction create of {target_kb} KB: OK",
            "",
        ])
    return "\n".join(lines)


# ------------------------------- A5: throughput vs concurrent clients

CLIENT_COUNTS = (1, 2, 4, 8, 16)
HOT_FILE_SIZE = 4 * KB

#: Closed-loop window of the throughput sweeps (A5, A9), in simulated
#: seconds.
THROUGHPUT_WINDOW_S = 10.0


def _read_throughput(n_clients: int) -> float:
    """Sustained reads/sec of ``n_clients`` clients, each looping
    whole-file reads of a private cached file."""
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False)
    env, client = rig.env, rig.bullet_client
    caps = [run_process(env, client.create(bytes(HOT_FILE_SIZE), 1))
            for _ in range(n_clients)]
    completed = [0]

    def client_loop(cap):
        while True:
            yield from client.read(cap)
            completed[0] += 1

    window = closed_loop(env, [client_loop(cap) for cap in caps],
                         window=THROUGHPUT_WINDOW_S)
    return completed[0] / window


def scalability_clients() -> str:
    """A5 — §2's quantitative scalability ("there may be thousands of
    processors accessing files"): the contended resources are the
    shared Ethernet and the single-threaded server, so aggregate
    throughput should rise with offered load and then saturate, not
    collapse."""
    results = {n: _read_throughput(n) for n in CLIENT_COUNTS}
    # A second client fills the idle client-side think time; the
    # single-threaded server (busy through each reply transmission,
    # §3) saturates soon after.
    require(results[2] > 1.1 * results[1],
            "a second client does not raise aggregate throughput")
    require(results[16] > 0.9 * results[2],
            "throughput collapses under 8x the offered load")
    require(results[16] / 16 < results[1],
            "per-client rate does not degrade under saturation")
    lines = ["A5: aggregate Bullet read throughput vs concurrent clients",
             "=" * 60,
             f"{'clients':>8} {'reads/sec':>12} {'per-client':>12}"]
    for n, ops in results.items():
        lines.append(f"{n:>8} {ops:>12.1f} {ops / n:>12.1f}")
    return "\n".join(lines)


# --------------------------- A6: primary failure and recovery (§3)

#: A 64 MB disk keeps the whole-disk recovery copy measurable.
FAILOVER_DISK = replace(DEFAULT_TESTBED.disk, capacity_bytes=64 * MB,
                        cylinders=256)
FAILOVER_FILES = 10
FAILOVER_FILE_SIZE = 64 * KB


def failover_recovery() -> str:
    """A6 — §3: "If the main disk fails, the file server can proceed
    uninterruptedly by using the other disk. Recovery is simply done by
    copying the complete disk." Kill the primary, verify every read
    still succeeds, then measure the recovery copy and read through the
    recovered replica."""
    rig = make_rig(seed=SEED,
                   testbed=replace(DEFAULT_TESTBED, disk=FAILOVER_DISK),
                   with_nfs=False, background_load=False)
    env, server, client = rig.env, rig.bullet, rig.bullet_client
    contents = [bytes([i]) * FAILOVER_FILE_SIZE for i in range(FAILOVER_FILES)]
    caps = [run_process(env, client.create(data, 2)) for data in contents]

    def evict_all():
        # Cold caches: the next reads must come off a disk.
        for cap in caps:
            server.evict(cap.object)

    evict_all()
    primary = server.mirror.disks[0]
    primary.fail("A6 injected failure")
    failover_reads = 0
    for cap, data in zip(caps, contents):
        require(run_process(env, client.read(cap)) == data,
                "a read during failover returned the wrong bytes")
        failover_reads += 1
    require(failover_reads == FAILOVER_FILES,
            "not every read was served during failover")
    start = env.now
    blocks = run_process(env, server.mirror.recover(primary))
    recovery_time = env.now - start
    require(recovery_time > 0, "the recovery copy took no simulated time")
    require(server.mirror.primary is primary,
            "the recovered replica did not return as primary")
    evict_all()
    require(run_process(env, client.read(caps[0])) == contents[0],
            "the recovered replica serves the wrong bytes")
    return "\n".join([
        "A6: primary failure, failover, whole-disk recovery",
        "=" * 56,
        f"reads served during failover : {failover_reads}/{FAILOVER_FILES}",
        f"recovery copy                : {blocks} blocks "
        f"({blocks * 512 // MB} MB)",
        f"recovery time (simulated)    : {recovery_time:.1f} s",
    ])


# ------------------- A7: the append pathology and the log server (§2)

LOG_RECORD = b"x" * 256
LOG_APPENDS = 600

#: The first and last this-many appends are averaged and compared.
LOG_EDGE = 40


def _naive_bullet_appends(rig) -> list:
    """BULLET.MODIFY derives a new file per append: a server-side
    whole-file copy — already better than shipping the file both ways,
    and still O(file)."""
    env, client = rig.env, rig.bullet_client
    cap = run_process(env, client.create(b"", 1))
    per_append = []
    for _ in range(LOG_APPENDS):
        def append(cap=cap):
            size = yield from client.size(cap)
            new_cap = yield from client.modify(cap, size, 0, LOG_RECORD, 1)
            yield from client.delete(cap)
            return new_cap

        elapsed, cap = timed(env, append())
        per_append.append(elapsed)
    return per_append


def _log_server_appends(rig) -> list:
    """The log server: O(record) tail-block writes."""
    env = rig.env
    logs = LogServer(env, VirtualDisk(env, rig.testbed.disk, name="log-disk"),
                     rig.testbed, transport=rig.rpc)
    logs.format()
    run_process(env, logs.boot())
    cap = run_process(env, logs.create_log())

    def append():
        return rig.rpc.trans(logs.port, RpcRequest(
            opcode=LOG_OPCODES["APPEND"], cap=cap, body=LOG_RECORD))

    return [timed(env, append())[0] for _ in range(LOG_APPENDS)]


def log_append() -> str:
    """A7 — §2: "Each append to a log file, for example, would require
    the whole file to be copied. ... For log files we have implemented a
    separate server." The naive cost must grow with log length; the log
    server's must not."""
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False)
    naive, logged = _naive_bullet_appends(rig), _log_server_appends(rig)
    naive_early = sum(naive[:LOG_EDGE]) / LOG_EDGE
    naive_late = sum(naive[-LOG_EDGE:]) / LOG_EDGE
    log_early = sum(logged[:LOG_EDGE]) / LOG_EDGE
    log_late = sum(logged[-LOG_EDGE:]) / LOG_EDGE
    require(naive_late > 2 * naive_early,
            "the naive append cost does not grow with the file")
    require(log_late < 1.5 * log_early,
            "the log server's append cost does not stay flat")
    require(naive_late > 3 * log_late,
            "the log server is not clearly ahead on a long log")
    return "\n".join([
        f"A7: appending {len(LOG_RECORD)}-byte records, naive Bullet vs log server",
        "=" * 62,
        f"{LOG_APPENDS} appends; window = {LOG_EDGE}",
        f"naive Bullet : first {to_msec(naive_early):8.2f} ms/append, "
        f"last {to_msec(naive_late):8.2f} ms/append "
        f"(growth {naive_late / naive_early:.1f}x)",
        f"log server   : first {to_msec(log_early):8.2f} ms/append, "
        f"last {to_msec(log_late):8.2f} ms/append "
        f"(growth {log_late / log_early:.1f}x)",
        f"final-append advantage: {naive_late / log_late:.1f}x",
    ])


# ------------------------------ A8: reads across a wide-area gateway

WIDE_AREA_LATENCIES_MS = (5, 15, 50, 150)
WIDE_AREA_SIZES = (1 * KB, 64 * KB)


def _wide_area_reads(latency_ms: int) -> dict:
    """Local and remote read delay per size, the server's site joined
    to a second site by a line of ``latency_ms`` one-way latency."""
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False)
    env, local = rig.env, rig.bullet_client
    far_rpc = RpcTransport(env, Ethernet(env, rig.testbed.ethernet),
                           rig.testbed.cpu)
    connect_sites(env, far_rpc, rig.rpc,
                  WideAreaProfile(propagation_delay=latency_ms / 1000.0))
    remote = BulletClient(env, far_rpc, rig.bullet.port)
    results = {}
    for size in WIDE_AREA_SIZES:
        cap = run_process(env, local.create(bytes(size), 2))
        local_delay, _ = timed(env, local.read(cap))
        remote_delay, _ = timed(env, remote.read(cap))
        # The remote penalty includes at least two one-way hops.
        require(remote_delay >= local_delay + 2 * latency_ms / 1000.0,
                f"a remote read at {latency_ms} ms pays less than two hops")
        results[size] = (local_delay, remote_delay)
    return results


def wide_area() -> str:
    """A8 — §2.1: Amoeba ran "in four different countries"; gateways
    make remote servers transparently reachable, and whole-file transfer
    keeps the wide-area round trips at one per file. Sweep the link's
    one-way latency; measure the remote-read penalty for a small and a
    large file."""
    sweep = {latency: _wide_area_reads(latency)
             for latency in WIDE_AREA_LATENCIES_MS}
    # One wide-area exchange per file: the extra cost of distance is
    # (almost) size-independent — the same two hops plus serialization.
    serialization = (64 * KB * 8) / WideAreaProfile().bandwidth_bits
    for latency, by_size in sweep.items():
        small, large = (remote - local for local, remote in by_size.values())
        require(large < small + serialization + 0.1,
                f"the 64 KB penalty at {latency} ms is more than hops "
                f"plus serialization")
    lines = ["A8: whole-file read across a wide-area gateway",
             "=" * 70,
             f"{'one-way (ms)':>13} {'size':>8} {'local (ms)':>12} "
             f"{'remote (ms)':>12} {'penalty (ms)':>13}"]
    for latency, by_size in sweep.items():
        for size, (local_delay, remote_delay) in by_size.items():
            lines.append(
                f"{latency:>13} {size:>8} {to_msec(local_delay):>12.1f} "
                f"{to_msec(remote_delay):>12.1f} "
                f"{to_msec(remote_delay - local_delay):>13.1f}")
    return "\n".join(lines)


# --------------------------- A9: client caching of immutable files (§5)

CACHING_CLIENT_COUNTS = (1, 4, 16)
CACHING_HOT_FILES = 12


def _hot_set_throughput(n_clients: int, caching: bool) -> float:
    """Aggregate reads/sec of ``n_clients`` clients reading a shared
    Zipf hot set, each through its own cache when ``caching``."""
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False)
    env = rig.env
    caps = [run_process(env, rig.bullet_client.create(bytes(HOT_FILE_SIZE), 1))
            for _ in range(CACHING_HOT_FILES)]
    completed = [0]

    def client_loop(index):
        stub = rig.bullet_client
        if caching:
            stub = CachingBulletClient(stub, WorkstationCache(
                CACHING_HOT_FILES * HOT_FILE_SIZE))
        stream = SeededStream(index, "picks")
        while True:
            cap = caps[stream.zipf_index(CACHING_HOT_FILES)]
            yield env.process(stub.read(cap))
            completed[0] += 1
            yield env.timeout(THINK_S)

    window = closed_loop(env, [client_loop(i) for i in range(n_clients)],
                         window=THROUGHPUT_WINDOW_S)
    return completed[0] / window


def client_caching() -> str:
    """A9 — §5: "Whole file transfer minimizes the load on the file
    server and on the network, allowing the service to be used on a
    larger scale" and "Client caching of immutable files is
    straightforward." A5 shows the single-threaded server saturating;
    with a cache per client a re-read costs no RPC and no server time —
    and is trivially consistent, the file can never change — so
    aggregate throughput scales with the clients instead."""
    uncached, cached = (
        {n: _hot_set_throughput(n, caching) for n in CACHING_CLIENT_COUNTS}
        for caching in (False, True))
    require(cached[16] > 3 * uncached[16],
            "caching does not lift the saturated server's ceiling")
    require(cached[16] > 3 * cached[1],
            "cached throughput does not scale with the clients")
    # At one client the two are comparable once warm (the cache can
    # only help).
    require(cached[1] >= uncached[1] * 0.9,
            "the cache hurts a single client")
    lines = ["A9: aggregate read throughput, with and without the",
             "immutable-file client cache (hot set of 12 x 4 KB files)",
             "=" * 60,
             f"{'clients':>8} {'no cache (ops/s)':>18} {'client cache (ops/s)':>22}"]
    for n in CACHING_CLIENT_COUNTS:
        lines.append(f"{n:>8} {uncached[n]:>18.1f} {cached[n]:>22.1f}")
    return "\n".join(lines)


# ------------------------------------------------ A10: what lockf hid

LOCKF_FILE_SIZE = 64 * KB


def _write_cold_warm(env, client, path: str, payload: bytes) -> tuple:
    """Delay of writing ``payload`` to ``path``, then of the first and
    the second open/read/close of it."""
    def write():
        fd = yield from client.creat(path)
        yield from client.write(fd, payload)
        yield from client.close(fd)

    def read():
        fd = yield from client.open(path)
        yield from client.lseek(fd, 0)
        data = yield from client.read(fd, len(payload))
        require(data == payload, f"{path} read back different bytes")
        yield from client.close(fd)

    return tuple(timed(env, step())[0] for step in (write, read, read))


def ablation_lockf() -> str:
    """A10 — the paper disabled the Sun 3/50's client caching with
    lockf to measure the *server*. Turned back on: warm NFS re-reads
    become fast (the measurement would have been meaningless, as the
    authors knew); cold reads and all writes are unchanged — the
    architectural gap is still there; and the price is a stale-read
    window a capability naming immutable bytes cannot have."""
    rig = make_rig(seed=SEED, with_bullet=False, nfs_churn=False,
                   background_load=False)
    env = rig.env
    caching_client = NfsClient(env, rig.testbed, rpc=rig.rpc,
                               server_port=rig.nfs.port, client_caching=True)
    payload = bytes(LOCKF_FILE_SIZE)
    rows = {
        "lockf": _write_cold_warm(env, rig.nfs_client, "/lockf.bin", payload),
        "caching": _write_cold_warm(env, caching_client, "/cached.bin",
                                    payload),
    }
    (write_l, cold_l, warm_l), (write_c, cold_c, warm_c) = rows.values()
    require(warm_c < warm_l / 5,
            "client caching does not collapse warm re-reads")
    require(0.8 < cold_c / cold_l < 1.2, "client caching moved cold reads")
    require(0.8 < write_c / write_l < 1.2, "client caching moved writes")
    lines = ["A10: NFS with lockf (paper's setup) vs client caching on",
             "=" * 62,
             f"{'':>12} {'write (ms)':>12} {'cold read':>12} {'warm read':>12}"]
    for label, (write, cold, warm) in rows.items():
        lines.append(f"{label:>12} {to_msec(write):>12.1f} "
                     f"{to_msec(cold):>12.1f} {to_msec(warm):>12.1f}")
    lines.append("")
    lines.append("caching makes warm re-reads ~local, leaves cold reads and")
    lines.append("writes untouched — and buys a stale-read window NFS-style")
    lines.append("caching cannot avoid (see tests/test_nfs_client_cache.py).")
    return "\n".join(lines)


# ------------------------- A11: the claims vs calibration uncertainty

SENSITIVITY_SIZES = (1 * KB, 64 * KB, 1 * MB)
SENSITIVITY_REPEATS = 2

#: label -> factors on (disk transfer rate, per-packet software
#: overhead, NFS per-byte data-path cost): our calibrated estimates of
#: 1989 hardware, each perturbed alone.
SENSITIVITY_SWEEP = {
    "baseline": (1.0, 1.0, 1.0),
    "disk x0.5": (0.5, 1.0, 1.0),
    "disk x2.0": (2.0, 1.0, 1.0),
    "pkt-overhead x0.5": (1.0, 0.5, 1.0),
    "pkt-overhead x2.0": (1.0, 2.0, 1.0),
    "nfs-cpu x0.5": (1.0, 1.0, 0.5),
    "nfs-cpu x1.5": (1.0, 1.0, 1.5),
}


def _read_speedups(disk_rate: float, overhead: float, nfs_cost: float) -> dict:
    """C1 speedups per size on a testbed with the three calibration
    constants scaled; C3 must hold there."""
    tb = DEFAULT_TESTBED
    rig = make_rig(seed=SEED, testbed=replace(
        tb,
        disk=replace(tb.disk, transfer_rate=tb.disk.transfer_rate * disk_rate),
        ethernet=replace(
            tb.ethernet,
            per_packet_overhead=tb.ethernet.per_packet_overhead * overhead),
        nfs=replace(
            tb.nfs,
            data_cost_per_byte_client=tb.nfs.data_cost_per_byte_client
            * nfs_cost,
            data_cost_per_byte_server=tb.nfs.data_cost_per_byte_server
            * nfs_cost),
    ))
    fig2 = bullet_figure2(rig, SENSITIVITY_SIZES, SENSITIVITY_REPEATS)
    fig3 = nfs_figure3(rig, SENSITIVITY_SIZES, SENSITIVITY_REPEATS)
    # C3 (write bw > NFS read bw above 64 KB) is structural.
    for size in (64 * KB, 1 * MB):
        require(fig2.bandwidth(size, "CREATE+DEL")
                > fig3.bandwidth(size, "READ"),
                f"C3 fails at {size} B with calibration factors "
                f"{disk_rate}, {overhead}, {nfs_cost}")
    return {size: fig3.delay(size, "READ") / fig2.delay(size, "READ")
            for size in SENSITIVITY_SIZES}


def sensitivity() -> str:
    """A11 — perturb each calibration constant by large factors and
    check that the paper's *qualitative* claims — Bullet wins reads at
    every size, Bullet write bandwidth beats NFS read bandwidth at
    64 KB+ — are not artifacts of one lucky constant."""
    sweep = {label: _read_speedups(*factors)
             for label, factors in SENSITIVITY_SWEEP.items()}
    for label, speedups in sweep.items():
        require(all(ratio > 1.8 for ratio in speedups.values()),
                f"{label}: Bullet does not clearly win reads: {speedups}")
        # The 3-6x band itself is E6's check, at the baseline; perturbed
        # configs stay within a sane neighbourhood of it.
        require(max(speedups.values()) < 12,
                f"{label}: a read speedup left the neighbourhood of the "
                f"band: {speedups}")
    lines = ["A11: claim robustness under calibration perturbations",
             "=" * 72,
             f"{'config':<20} " + "".join(f"{s:>12}" for s in
                                          ("C1@1KB", "C1@64KB", "C1@1MB"))
             + f"{'C3 holds':>10}"]
    for label, speedups in sweep.items():
        lines.append(
            f"{label:<20} "
            + "".join(f"{speedups[s]:>11.1f}x" for s in SENSITIVITY_SIZES)
            + "yes".rjust(10))
    return "\n".join(lines)


# ------------------------------------ A12: server cache sizing (§1/§3)

CACHE_SIZES = (512 * KB, 2 * MB, 8 * MB, 14 * MB)

#: A heavier size profile than the paper's median-1 KB UNIX mix, so the
#: sweep stresses the smaller caches (the 1 KB-median working set fits
#: in half a megabyte). The maximum stays below the smallest swept
#: cache: every file must fit in server memory (§2's whole-file
#: constraint).
SIZING_FILES = FileSizeDistribution(median=48 * KB, maximum=384 * KB)
SIZING_TRACE_SEED = 23
SIZING_TRACE_OPS = 300
SIZING_TRACE_PREPOPULATE = 60


def _replay_with_cache(cache_bytes: int, trace) -> tuple:
    """Hit rate and mean read latency of ``trace`` on a server with
    ``cache_bytes`` of cache."""
    bullet = DEFAULT_TESTBED.bullet
    testbed = replace(DEFAULT_TESTBED, bullet=replace(
        bullet, ram_bytes=cache_bytes + bullet.reserved_ram_bytes))
    rig = make_rig(seed=SEED, testbed=testbed, with_nfs=False,
                   background_load=False)
    read_time = replay_bullet(rig, trace, 1)["read"]
    reads = sum(op.kind == "read" for op in trace)
    return rig.bullet.incarnation.cache.stats.hit_rate, read_time / reads


def ablation_cache_size() -> str:
    """A12 — how much server RAM does the whole-file cache need? §1
    motivates the design with big memories ("at least 16 Megabytes are
    common today, enough to hold most files encountered in practice");
    §3 gives *all* remaining RAM to the cache. One Zipf-popular trace
    replayed against servers with different cache sizes shows where the
    paper's 14 MB lands on the curve."""
    trace = TraceGenerator(seed=SIZING_TRACE_SEED, sizes=SIZING_FILES,
                           read_fraction=0.75, delete_fraction=0.05).generate(
        n_ops=SIZING_TRACE_OPS, prepopulate=SIZING_TRACE_PREPOPULATE)
    sweep = {size: _replay_with_cache(size, trace) for size in CACHE_SIZES}
    rates, latencies = zip(*sweep.values())
    require(all(a <= b + 0.01 for a, b in zip(rates, rates[1:])),
            f"more cache lowered the hit rate: {rates}")
    require(all(a >= b * 0.95 for a, b in zip(latencies, latencies[1:])),
            f"more cache raised the mean read latency: {latencies}")
    require(rates[-1] > 0.95,
            "the paper-scale cache does not hold this working set")
    require(rates[0] < rates[-1], "the sweep does not stress the small cache")
    lines = ["A12: server cache size vs hit rate and mean read latency",
             "=" * 60,
             f"{'cache':>10} {'hit rate':>10} {'mean read (ms)':>16}"]
    for size, (hit_rate, mean_read) in sweep.items():
        label = f"{size // MB} MB" if size >= MB else f"{size // KB} KB"
        lines.append(f"{label:>10} {hit_rate:>10.3f} "
                     f"{to_msec(mean_read):>16.1f}")
    return "\n".join(lines)
