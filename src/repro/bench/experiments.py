"""The experiment layer: every committed experiment, in one table.

An experiment is **one zero-argument function**: it builds its rig,
measures, raises :class:`~repro.errors.ConsistencyError` when one of its
own invariants fails, and returns a payload. :data:`EXPERIMENTS` maps
each concept name to that function and the *form* of its artifact —
where the committed file lives and how a payload becomes its bytes:
:data:`JSON` (``BENCH_<name>.json``; keys sorted, floats via ``repr``,
trailing newline) for the measurements defined here, :data:`TABLE`
(``benchmarks/results/<name>.txt``) for the paper's own figures and
claims (:mod:`~repro.bench.paper`) and the ablations
(:mod:`~repro.bench.ablations`). Either way a run reproduces its
committed artifact **byte for byte** or something observable changed:
:func:`write` regenerates an artifact and :func:`check` compares a
fresh run against the committed file.
Adding an experiment is one function, one table entry and its artifact
— ``python -m repro.obs bench``, CI and the tier-1 tests loop over the
table.

Nothing here takes a seed or scale argument: an artifact is comparable
to its committed copy only at the scale it was committed at, so scale
is module constants, each beside the reason for its value. Artifact
paths are relative to the repository root; :func:`write` and
:func:`check` refuse to run anywhere else.
"""

from __future__ import annotations

import difflib
import json
import os

from ..capability import RIGHT_READ
from ..client import CachingBulletClient, CurrencyPolicy, WorkstationCache
from ..errors import BadRequestError, ConsistencyError
from ..sim import SeededStream, run_process
from ..units import KB, to_msec
from . import ablations, paper
from .harness import SEED, THINK_S, closed_loop, make_rig, require
from .workload import PAPER_SIZES

__all__ = ["EXPERIMENTS", "artifact_path", "write", "check",
           "canonical_json"]

PAPER = ("The Design of a High-Performance File Server "
         "(van Renesse, Tanenbaum, Wilschut; ICDCS 1989)")


def canonical_json(payload: dict) -> str:
    """The one true rendering: sorted keys, 2-space indent, trailing
    newline. Byte-identical for equal payloads."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _strictly(direction: str, series) -> bool:
    pairs = zip(series, series[1:])
    if direction == "rising":
        return all(a < b for a, b in pairs)
    return all(a > b for a, b in pairs)


# ------------------------------------------------ Figures 2 and 3 (§4)

def _table_payload(table) -> dict:
    """A MeasurementTable as plain data: per size and column, the delay
    (msec, as the paper's part (a)) and bandwidth (KB/s, part (b))."""
    return {
        str(size): {
            column: {
                "delay_ms": to_msec(table.delay(size, column)),
                "bandwidth_kb_s": table.bandwidth(size, column),
            }
            for column in table.columns if column in table.rows[size]
        }
        for size in sorted(table.rows)
    }


def fig2_fig3() -> dict:
    """The paper's Figure 2 (Bullet) and Figure 3 (NFS) on one
    shared-registry rig, plus the full metrics snapshot and the cache
    conservation invariant."""
    fig2, fig3, metrics = paper.figures()
    lookups = metrics.total("repro_cache_lookups_total")
    hits = metrics.total("repro_cache_hits_total")
    misses = metrics.total("repro_cache_misses_total")
    require(hits + misses == lookups,
            f"cache conservation violated: {hits} hits + {misses} misses "
            f"!= {lookups} lookups")
    return {
        "meta": {
            "paper": PAPER,
            "seed": SEED,
            "repeats": paper.REPEATS,
            "sizes": list(PAPER_SIZES),
        },
        "fig2_bullet": _table_payload(fig2),
        "fig3_nfs": _table_payload(fig3),
        "invariants": {
            "cache_lookups": lookups,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_conservation": "hits + misses == lookups",
        },
        "metrics": metrics.snapshot(),
    }


# ------------------------------------------ the concurrent service plane

WORKER_COUNTS = (1, 2, 4)

#: Closed-loop window per worker count, in simulated seconds.
WORKER_WINDOW_S = 2.0

#: The fixed client population of the worker sweep. Each client re-reads
#: one private file that is small (one fragment) and cache-hot, so the
#: worker-side CPU cost dominates the wire time and added workers
#: genuinely help.
WORKER_CLIENTS = 8
WORKER_FILE_SIZE = 256

#: The cold-read storm: clients walking the file list against a worker
#: pool. 24 files keeps the per-disk queues deep enough that the
#: elevator actually reorders (at larger counts the storm's stride
#: pattern degenerates to arrival order and both disciplines tie).
STORM_CLIENTS = 8
STORM_WORKERS = 4
STORM_FILES = 24
STORM_FILE_SIZE = 16 * KB


def _worker_throughput(workers: int) -> float:
    """Sustained cache-hit READ ops/sec with ``workers`` service
    workers. With one worker the server serializes dispatch, capability
    check, memcpy and the per-packet network send; with N those phases
    pipeline across requests and only the shared Ethernet remains."""
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False,
                   workers=workers)
    env, client = rig.env, rig.bullet_client
    caps = [run_process(env, client.create(bytes(WORKER_FILE_SIZE), 2))
            for _ in range(WORKER_CLIENTS)]
    # Warm each client's capability into the verified-cap cache so the
    # measured loop runs the steady-state (cached-check) path.
    for cap in caps:
        run_process(env, client.read(cap))
    completed = [0]

    def client_loop(cap):
        while True:
            yield from client.read(cap)
            completed[0] += 1

    window = closed_loop(env, [client_loop(cap) for cap in caps],
                         window=WORKER_WINDOW_S)
    return completed[0] / window


def _cold_read_storm(discipline: str) -> dict:
    """Every read misses the cache (files are evicted after each read),
    so the worker pool keeps a real queue on each disk — the workload
    where the disk scheduler has requests to reorder."""
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False,
                   workers=STORM_WORKERS, disk_discipline=discipline)
    env, client, bullet = rig.env, rig.bullet_client, rig.bullet
    caps = [run_process(env, client.create(bytes(STORM_FILE_SIZE), 2))
            for _ in range(STORM_FILES)]
    for cap in caps:
        bullet.evict(cap.object)

    def storm(index):
        # Client i walks the file list from a different phase, so
        # concurrent misses hit scattered cylinders.
        for step in range(STORM_FILES):
            cap = caps[(index * (STORM_FILES // STORM_CLIENTS) + step)
                       % STORM_FILES]
            yield from client.read(cap)
            bullet.evict(cap.object)

    elapsed = closed_loop(env, [storm(i) for i in range(STORM_CLIENTS)])
    return {
        "ops_per_sec": STORM_CLIENTS * STORM_FILES / elapsed,
        "seeks": sum(disk.stats.seeks.value for disk in bullet.mirror.disks),
    }


def worker_scaling() -> dict:
    """The concurrent service plane: closed-loop cache-hit throughput
    as the worker pool grows (must rise strictly), and the cold-read
    storm under FCFS vs elevator disk scheduling."""
    throughput = {workers: _worker_throughput(workers)
                  for workers in WORKER_COUNTS}
    require(_strictly("rising", list(throughput.values())),
            f"worker scaling not strictly increasing: {throughput}")
    return {
        "meta": {
            "paper": PAPER,
            "experiment": "concurrent service plane: worker-pool "
                          "throughput scaling and disk-scheduler "
                          "disciplines under cold-read load",
            "seed": SEED,
            "duration_s": WORKER_WINDOW_S,
            "worker_counts": list(WORKER_COUNTS),
            "storm_files": STORM_FILES,
        },
        "throughput_vs_workers_ops_per_sec": {
            str(workers): ops for workers, ops in throughput.items()
        },
        "cold_read_disciplines": {
            discipline: _cold_read_storm(discipline)
            for discipline in ("fcfs", "elevator")
        },
        "invariants": {
            "worker_scaling": "ops/sec strictly increasing 1 -> 2 -> 4",
        },
    }


# -------------------------------------------- §5: the workstation cache

#: The hot set one workstation's client processes share: 24 x 16 KB =
#: 384 KB, so the byte budgets below run from thrashing (64 KB holds
#: four files) to full residency (448 KB holds everything).
CACHE_HOT_FILES = 24
CACHE_FILE_SIZE = 16 * KB
CLIENT_CACHE_SIZES = (64 * KB, 160 * KB, 288 * KB, 448 * KB)

#: Reads each client process performs, per cache size: fixed total
#: work, so the sizes compare load for the *same* job, not for whatever
#: a saturated server happened to admit.
OPS_PER_CLIENT = 150


def _shared_cache_run(cache_bytes: int) -> dict:
    """One workstation whose client processes share a ``cache_bytes``
    cache, each doing :data:`OPS_PER_CLIENT` Zipf whole-file reads.

    Even-numbered processes read under the owner capabilities;
    odd-numbered ones under read-only restrictions minted at setup (by
    the server: nothing is cached yet, so the cache cannot vouch for the
    owner capabilities and restrict() falls through) — so both
    local-verification paths run: known-pair hits and verifier
    derivation from the secret learned off an owner admission.
    """
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False)
    env, client, bullet = rig.env, rig.bullet_client, rig.bullet
    n_clients = rig.testbed.workstation.processes
    owners = [
        run_process(env, client.create(bytes([i % 251]) * CACHE_FILE_SIZE, 1))
        for i in range(CACHE_HOT_FILES)]
    shared = CachingBulletClient(client, WorkstationCache(
        cache_bytes, name="ws0", metrics=rig.metrics, cpu=rig.testbed.cpu))
    readers = [run_process(env, shared.restrict(cap, RIGHT_READ))
               for cap in owners]
    served_before = bullet.stats.reads.value

    def client_loop(index):
        caps = owners if index % 2 == 0 else readers
        stream = SeededStream(SEED, f"ws0:client{index}")
        for _ in range(OPS_PER_CLIENT):
            yield from shared.read(caps[stream.zipf_index(CACHE_HOT_FILES)])
            yield env.timeout(THINK_S)

    elapsed = closed_loop(env, [client_loop(i) for i in range(n_clients)])
    stats = shared.cache.stats
    return {
        "served_ops_per_sec": n_clients * OPS_PER_CLIENT / elapsed,
        "server_reads": bullet.stats.reads.value - served_before,
        "lookups": stats.lookups.value,
        "hits": stats.hits.value,
        "misses": stats.misses.value,
        "evictions": stats.evictions.value,
        "bytes_saved": stats.bytes_saved.value,
        "rpcs_avoided": stats.rpcs_avoided.value,
        "local_verifies": stats.local_verifies.value,
        "cached_bytes": shared.cache.cached_bytes,
    }


def client_cache_scaling() -> dict:
    """Served throughput and server READ load vs the workstation cache
    size (§5 client caching with local capability verification).

    As the byte budget grows toward the working set the hit rate rises,
    the server's READ load falls and served ops/sec climbs — the §5
    claim that client caching lifts the server ceiling, measured.
    Checked: per size ``hits + misses == lookups``; across the sweep
    server reads fall strictly while hits, bytes saved, RPCs avoided
    and served ops/sec rise strictly.
    """
    sizes = list(CLIENT_CACHE_SIZES)
    sweep = {size: _shared_cache_run(size) for size in sizes}
    for size, row in sweep.items():
        require(row["hits"] + row["misses"] == row["lookups"],
                f"client cache conservation violated at {size} B: "
                f"{row['hits']} hits + {row['misses']} misses != "
                f"{row['lookups']} lookups")
    for field, direction in (("server_reads", "falling"),
                             ("hits", "rising"),
                             ("bytes_saved", "rising"),
                             ("rpcs_avoided", "rising"),
                             ("served_ops_per_sec", "rising")):
        series = [sweep[size][field] for size in sizes]
        require(_strictly(direction, series),
                f"client cache scaling: {field} not strictly "
                f"{direction} across {sizes}: {series}")
    return {
        "meta": {
            "paper": PAPER,
            "experiment": "workstation cache scaling: served ops/sec "
                          "and server READ load vs client-cache size, "
                          "many clients sharing one cache with local "
                          "capability verification",
            "seed": SEED,
            "ops_per_client": OPS_PER_CLIENT,
            "cache_sizes_bytes": sizes,
        },
        "client_cache_scaling": {
            str(size): sweep[size] for size in sizes
        },
        "invariants": {
            "client_cache_conservation": "hits + misses == lookups "
                                         "at every cache size",
            "server_reads": "strictly falling with cache size",
            "served_ops_per_sec": "strictly rising with cache size",
            "bytes_saved": "strictly rising with cache size",
            "rpcs_avoided": "strictly rising with cache size",
        },
    }


# ------------------------------------------ §5: name-mediated coherence

#: Workstation counts swept under check-always, and the count the
#: policy comparison holds fixed.
WORKSTATION_COUNTS = (1, 2, 4, 8, 16)
TRADEOFF_WORKSTATIONS = 8

#: The hot set and writer shared by every cell, so cells compare the
#: cost of the *same* job. The per-workstation server-READ envelope
#: follows from them: at most one cold fetch per hot file plus one
#: re-fetch per REPLACE.
HOT_FILES = 12
HOT_FILE_SIZE = 8 * KB
REPLACES = 10
REPLACE_INTERVAL_S = 0.03

#: Open+read ops each workstation performs.
OPS_PER_WORKSTATION = 120

#: Each workstation cache holds the whole hot set plus headroom for
#: freshly fetched versions: the cache shields the file server, and
#: what remains is the coherence traffic being measured.
COHERENCE_CACHE_BYTES = 2 * HOT_FILES * HOT_FILE_SIZE

#: The currency policies compared, most to least eager. check-after-T
#: re-checks every 50 ms against a REPLACE every 30 ms, so it sits
#: between the other two on both traffic and staleness.
POLICIES = {
    "always": CurrencyPolicy.always(),
    "after": CurrencyPolicy.after(0.05),
    "session": CurrencyPolicy.session(),
}


def _encode(name: str, version: int) -> bytes:
    """A hot file's contents: a self-describing version header padded
    to :data:`HOT_FILE_SIZE`, so a reader can tell which version it was
    served without any side channel."""
    header = f"{name}:v{version}:".encode()
    return header + b"." * (HOT_FILE_SIZE - len(header))


def _version_of(data: bytes) -> int:
    return int(data.split(b":v", 1)[1].split(b":", 1)[0])


def _coherence_cell(n_workstations: int, policy: CurrencyPolicy) -> dict:
    """N workstations open+read a directory-published hot set under
    Zipf popularity and one currency ``policy`` while a seeded writer
    REPLACEs bindings.

    A read is counted **stale-served** when the bytes decode to a
    version older than the name's ground-truth version *before the open
    began* (reads concurrent with a REPLACE are legitimately either
    version; reads of data older than the binding at open time are the
    §5 violation).
    """
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False,
                   with_directory=True)
    env, bullet = rig.env, rig.bullet
    root = run_process(env, rig.directory_client.create_directory())

    names = [f"hot-f{i:03d}" for i in range(HOT_FILES)]
    # Even-numbered files are published under owner capabilities, odd
    # ones under read-only restrictions — so the currency check runs
    # both evidence paths (owner-vs-restricted lineage and known-pair).
    masks: list = [None if i % 2 == 0 else RIGHT_READ
                   for i in range(HOT_FILES)]

    writer_session = rig.workstation("writer", 4 * HOT_FILE_SIZE, root,
                                     CurrencyPolicy.session())
    truth: dict[str, int] = {}
    owners: dict = {}
    for i, name in enumerate(names):
        owners[name], _old = run_process(
            env, writer_session.publish(name, _encode(name, 0), 1,
                                        mask=masks[i]))
        truth[name] = 0

    sessions = [rig.workstation(f"ws{w}", COHERENCE_CACHE_BYTES, root, policy)
                for w in range(n_workstations)]
    stale_served = [0]

    def reader(index: int):
        named = sessions[index]
        stream = SeededStream(SEED, f"coherence:ws{index}")
        for _ in range(OPS_PER_WORKSTATION):
            name = names[stream.zipf_index(HOT_FILES)]
            expected = truth[name]
            data = yield from named.read(name)
            if _version_of(data) < expected:
                stale_served[0] += 1
            yield env.timeout(THINK_S)

    def writer():
        stream = SeededStream(SEED, "coherence:writer")
        for _ in range(REPLACES):
            yield env.timeout(REPLACE_INTERVAL_S)
            i = stream.zipf_index(HOT_FILES)
            name = names[i]
            version = truth[name] + 1
            owner, _old = yield from writer_session.publish(
                name, _encode(name, version), 1, mask=masks[i])
            truth[name] = version
            # Dispose of the superseded version: readers mid-fetch
            # recover through their own currency re-check.
            doomed = owners[name]
            owners[name] = owner
            yield from rig.bullet_client.delete(doomed)

    reads_before = bullet.stats.reads.value
    elapsed = closed_loop(
        env, [reader(w) for w in range(n_workstations)] + [writer()])

    total_ops = n_workstations * OPS_PER_WORKSTATION
    dir_rpcs = sum(s.stats.dir_rpcs.value for s in sessions)
    cache_hits = sum(s.cache.stats.hits.value for s in sessions)
    cache_misses = sum(s.cache.stats.misses.value for s in sessions)
    cache_lookups = sum(s.cache.stats.lookups.value for s in sessions)
    require(cache_hits + cache_misses == cache_lookups,
            f"client cache conservation violated: {cache_hits} + "
            f"{cache_misses} != {cache_lookups}")
    server_reads = bullet.stats.reads.value - reads_before
    return {
        "workstations": n_workstations,
        "policy": repr(policy),
        "total_ops": total_ops,
        "elapsed_s": elapsed,
        "served_ops_per_sec": total_ops / elapsed,
        "server_reads": server_reads,
        "server_reads_per_workstation": server_reads / n_workstations,
        "dir_rpcs": dir_rpcs,
        "dir_rpcs_per_op": dir_rpcs / total_ops,
        "dir_rpcs_writer": writer_session.stats.dir_rpcs.value,
        "coherence_checks": sum(s.stats.checks.value for s in sessions),
        "stale_bindings": sum(s.stats.stale.value for s in sessions),
        "revalidations": sum(s.stats.revalidations.value for s in sessions),
        "stale_reads_served": stale_served[0],
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
    }


def coherence() -> dict:
    """§5 name-based coherence traffic vs workstation count and policy.

    §5 keeps the file server out of the coherence protocol entirely: a
    workstation checks a cached copy's currency against the *directory*
    ("simply by checking whether the capability is still stored under
    the given name"), so as workstations multiply the file server's
    READ load stays within one workstation's envelope while the
    directory absorbs one LOOKUP per currency check.

    Two measurements. The **sweep** runs N = 1..16 workstations under
    the check-always currency policy: directory RPCs must grow with N
    while per-workstation server READs stay within the single-
    workstation envelope (``hot_files + n_replaces`` — cold fetches
    plus re-fetches of replaced versions) and no stale read is ever
    served. The **policy comparison** holds N = 8 and swaps the
    currency policy: directory RPCs per op must fall strictly from
    check-always through check-after-T to session, and the session
    policy — which never re-checks — must actually serve stale reads
    (otherwise the workload isn't stressing coherence and the zero
    above would be vacuous).
    """
    counts = list(WORKSTATION_COUNTS)
    sweep = {count: _coherence_cell(count, POLICIES["always"])
             for count in counts}
    envelope = HOT_FILES + REPLACES
    for count, row in sweep.items():
        require(row["stale_reads_served"] == 0,
                f"check-always served {row['stale_reads_served']} stale "
                f"reads at {count} workstations; §5 says zero")
        require(row["server_reads_per_workstation"] <= envelope,
                f"server READs per workstation "
                f"({row['server_reads_per_workstation']}) exceeded the "
                f"single-workstation envelope ({envelope}) at "
                f"{count} workstations: the cache is not shielding "
                f"the file server")
    rpc_series = [sweep[count]["dir_rpcs"] for count in counts]
    require(_strictly("rising", rpc_series),
            f"directory RPCs not strictly rising with workstations: "
            f"{rpc_series}")
    tradeoff = {spec: _coherence_cell(TRADEOFF_WORKSTATIONS, policy)
                for spec, policy in POLICIES.items()}
    per_op = [row["dir_rpcs_per_op"] for row in tradeoff.values()]
    require(_strictly("falling", per_op),
            f"directory RPCs per op not strictly ordered "
            f"always > after > session: {per_op}")
    require(tradeoff["session"]["stale_reads_served"] != 0,
            "session policy served no stale reads: the workload is not "
            "exercising coherence, so the check-always zero is vacuous")
    return {
        "meta": {
            "paper": PAPER,
            "experiment": "name-based coherence (§5): directory RPCs "
                          "and server READ load vs workstation count "
                          "and currency policy, under a shared Zipf "
                          "hot set with a writer REPLACE-ing bindings",
            "seed": SEED,
            "ops_per_workstation": OPS_PER_WORKSTATION,
            "workstation_counts": counts,
            "hot_files": HOT_FILES,
            "n_replaces": REPLACES,
            "server_read_envelope_per_workstation": envelope,
        },
        "coherence_vs_workstations": {
            str(count): sweep[count] for count in counts
        },
        "policy_tradeoff": tradeoff,
        "invariants": {
            "stale_reads_check_always": "zero at every workstation "
                                        "count",
            "server_reads_per_workstation": "within the single-"
                                            "workstation envelope "
                                            "(hot_files + n_replaces)",
            "dir_rpcs": "strictly rising with workstation count",
            "dir_rpcs_per_op_by_policy": "strictly ordered "
                                         "always > after > session",
            "session_staleness": "session policy serves stale reads "
                                 "(the workload stresses coherence)",
        },
    }


# ------------------------------------------------------------ the table

#: The two artifact forms: (path of the committed file, given the
#: experiment's name; rendering of a payload to that file's bytes).
JSON = ("BENCH_{}.json", canonical_json)
TABLE = ("benchmarks/results/{}.txt", "{}\n".format)

#: name -> (run, form). The name is the one fact: with the form it also
#: names the artifact.
EXPERIMENTS = {
    "fig2_fig3": (fig2_fig3, JSON),
    "worker_scaling": (worker_scaling, JSON),
    "client_cache_scaling": (client_cache_scaling, JSON),
    "coherence": (coherence, JSON),
    # E1-E7: the paper's figures and claims.
    "fig1_layout": (paper.fig1_layout, TABLE),
    "fig2_bullet": (paper.fig2_bullet, TABLE),
    "fig3_nfs": (paper.fig3_nfs, TABLE),
    "comparison_claims": (paper.comparison_claims, TABLE),
    "workload_replay": (paper.workload_replay, TABLE),
    # A1-A12: the ablations.
    "ablation_contiguity": (ablations.ablation_contiguity, TABLE),
    "ablation_pfactor": (ablations.ablation_pfactor, TABLE),
    "ablation_cache": (ablations.ablation_cache, TABLE),
    "ablation_fragmentation": (ablations.ablation_fragmentation, TABLE),
    "scalability_clients": (ablations.scalability_clients, TABLE),
    "failover_recovery": (ablations.failover_recovery, TABLE),
    "log_append": (ablations.log_append, TABLE),
    "wide_area": (ablations.wide_area, TABLE),
    "client_caching": (ablations.client_caching, TABLE),
    "ablation_lockf": (ablations.ablation_lockf, TABLE),
    "sensitivity": (ablations.sensitivity, TABLE),
    "ablation_cache_size": (ablations.ablation_cache_size, TABLE),
}


def artifact_path(name: str) -> str:
    """The committed artifact of experiment ``name``, relative to the
    repository root."""
    _run, (path, _render) = EXPERIMENTS[name]
    return path.format(name)


def _fresh(name: str) -> tuple:
    """``(path, text)``: the committed artifact of experiment ``name``
    and what a run now renders for it. Refused — before anything is
    simulated — when the committed artifact is not there, i.e. when
    not run from the repository root; a shape check the run fails
    comes out naming the experiment."""
    run, (_path, render) = EXPERIMENTS[name]
    path = artifact_path(name)
    if not os.path.isfile(path):
        raise BadRequestError(
            f"{path} ({name}) not found in {os.getcwd()}: run from the "
            f"repository root"
        )
    try:
        return path, render(run())
    except ConsistencyError as exc:
        raise ConsistencyError(f"{name}: {exc}") from exc


def write(name: str) -> str:
    """Run experiment ``name`` and rewrite its committed artifact;
    returns the path written."""
    path, text = _fresh(name)
    with open(path, "w", newline="") as handle:
        handle.write(text)
    return path


def check(name: str) -> str:
    """Run experiment ``name`` and byte-compare against its committed
    artifact. Returns ``""`` when identical, else a unified diff
    (committed -> regenerated)."""
    path, fresh = _fresh(name)
    with open(path, newline="") as handle:
        committed = handle.read()
    return "".join(difflib.unified_diff(
        committed.splitlines(keepends=True), fresh.splitlines(keepends=True),
        fromfile=path, tofile=f"{path} (regenerated)"))
