"""The bench plane: a table of experiments, one committed artifact each.

An experiment is a function returning a payload, rendered as canonical
JSON (keys sorted, floats via ``repr``, trailing newline) so that a run
either reproduces its committed artifact **byte for byte** or something
observable changed. :data:`EXPERIMENTS` maps each concept name to
``(run, artifact_path)``; :func:`write` regenerates an artifact and
:func:`check` compares a fresh run against the committed file. Adding
an experiment is one table entry plus its artifact — CI and the tier-1
tests loop over the table.

Nothing here takes a seed or scale argument: an artifact is comparable
to its committed copy only at the scale it was committed at, so the
knobs are module constants. Paths are relative to the repository root,
where ``python -m repro.obs bench`` is run from.

This module imports :mod:`repro.bench` (which imports ``repro.core``,
which imports :mod:`repro.obs`), so it is deliberately *not* imported
from ``repro.obs.__init__`` — import it directly.
"""

from __future__ import annotations

import difflib
import json

from ..bench import (PAPER_SIZES, bullet_figure2,
                     coherence_policy_tradeoff, coherence_vs_workstations,
                     cold_read_disciplines, make_rig, nfs_figure3,
                     throughput_vs_workers)
from ..bench import client_cache_scaling as sweep_client_cache
from ..errors import ConsistencyError
from ..units import KB, to_msec

__all__ = ["EXPERIMENTS", "write", "check", "canonical_json"]

#: The one seed every committed artifact was generated from.
SEED = 1989

PAPER = ("The Design of a High-Performance File Server "
         "(van Renesse, Tanenbaum, Wilschut; ICDCS 1989)")

#: Measurements averaged per Figure 2 / Figure 3 cell.
REPEATS = 3

#: Sizes and repeats used for the quick cache-policy ablation (kept
#: small: the ablation is a smoke check, not a figure).
ABLATION_SIZES = (1024, 65536)
ABLATION_REPEATS = 2


def canonical_json(payload: dict) -> str:
    """The one true rendering: sorted keys, 2-space indent, trailing
    newline. Byte-identical for equal payloads."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _table_payload(table) -> dict:
    """A MeasurementTable as plain data: per size and column, the delay
    (msec, as the paper's part (a)) and bandwidth (KB/s, part (b))."""
    out: dict = {}
    for size in sorted(table.rows):
        row: dict = {}
        for column in table.columns:
            if column not in table.rows[size]:
                continue
            row[column] = {
                "delay_ms": to_msec(table.delay(size, column)),
                "bandwidth_kb_s": table.bandwidth(size, column),
            }
        out[str(size)] = row
    return out


def _check_invariants(registry) -> dict:
    """The conservation checks the registry makes possible; raises
    :class:`ConsistencyError` on violation so CI fails loudly."""
    lookups = registry.total("repro_cache_lookups_total")
    hits = registry.total("repro_cache_hits_total")
    misses = registry.total("repro_cache_misses_total")
    if hits + misses != lookups:
        raise ConsistencyError(
            f"cache conservation violated: {hits} hits + {misses} misses "
            f"!= {lookups} lookups"
        )
    return {
        "cache_lookups": lookups,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_conservation": "hits + misses == lookups",
    }


def _ablation_cache_policy() -> dict:
    """Fig. 2 READ delay under LRU vs FIFO eviction (A3)."""
    out: dict = {}
    for policy in ("lru", "fifo"):
        rig = make_rig(seed=SEED, with_nfs=False, background_load=False,
                       cache_policy=policy)
        table = bullet_figure2(rig, sizes=list(ABLATION_SIZES),
                               repeats=ABLATION_REPEATS)
        out[policy] = {
            str(size): to_msec(table.delay(size, "READ"))
            for size in sorted(table.rows)
        }
    return out


def fig2_fig3() -> dict:
    """The paper's Figure 2 (Bullet) and Figure 3 (NFS) on one
    shared-registry rig, plus the cache-policy ablation, the full
    metrics snapshot and the conservation invariants."""
    sizes = list(PAPER_SIZES)
    rig = make_rig(seed=SEED)
    fig2 = bullet_figure2(rig, sizes=sizes, repeats=REPEATS)
    fig3 = nfs_figure3(rig, sizes=sizes, repeats=REPEATS)
    return {
        "meta": {
            "paper": PAPER,
            "seed": SEED,
            "repeats": REPEATS,
            "sizes": sizes,
        },
        "fig2_bullet": _table_payload(fig2),
        "fig3_nfs": _table_payload(fig3),
        "ablations": {
            "cache_policy_read_delay_ms": _ablation_cache_policy(),
        },
        "invariants": _check_invariants(rig.metrics),
        "metrics": rig.metrics.snapshot(),
    }


#: Closed-loop window per worker count, in simulated seconds.
WORKER_WINDOW_S = 2.0


def worker_scaling() -> dict:
    """The concurrent service plane: closed-loop cache-hit throughput
    as the worker pool grows, and the cold-read storm under FCFS vs
    elevator disk scheduling. Raises :class:`ConsistencyError` when
    scaling is not strictly increasing, so CI fails loudly."""
    worker_counts = (1, 2, 4)
    throughput = throughput_vs_workers(worker_counts=worker_counts,
                                       duration=WORKER_WINDOW_S, seed=SEED)
    ordered = [throughput[workers] for workers in worker_counts]
    if not all(a < b for a, b in zip(ordered, ordered[1:])):
        raise ConsistencyError(
            f"worker scaling not strictly increasing: {throughput}"
        )
    # 24 files keeps the per-disk queues deep enough that the elevator
    # actually reorders (at larger counts the storm's stride pattern
    # degenerates to arrival order and both disciplines tie).
    storm_files = 24
    disciplines = cold_read_disciplines(n_files=storm_files, seed=SEED)
    return {
        "meta": {
            "paper": PAPER,
            "experiment": "concurrent service plane: worker-pool "
                          "throughput scaling and disk-scheduler "
                          "disciplines under cold-read load",
            "seed": SEED,
            "duration_s": WORKER_WINDOW_S,
            "worker_counts": list(worker_counts),
            "storm_files": storm_files,
        },
        "throughput_vs_workers_ops_per_sec": {
            str(workers): throughput[workers] for workers in worker_counts
        },
        "cold_read_disciplines": disciplines,
        "invariants": {
            "worker_scaling": "ops/sec strictly increasing 1 -> 2 -> 4",
        },
    }


#: Workstation cache byte budgets swept by the client-cache experiment.
#: The hot set is 24 x 16 KB = 384 KB, so the sweep runs from thrashing
#: (64 KB holds four files) to full residency (448 KB holds everything).
CLIENT_CACHE_SIZES = (64 * KB, 160 * KB, 288 * KB, 448 * KB)

#: Reads each client process performs, per cache size.
OPS_PER_CLIENT = 150


def client_cache_scaling() -> dict:
    """The workstation cache: served throughput and server READ load vs
    the workstation cache size, under many client processes sharing one
    cache (§5 client caching with local capability verification).

    Checks — raising :class:`ConsistencyError` so CI fails loudly —
    that per size ``hits + misses == lookups``, and that across the
    sweep server reads fall strictly while hits, bytes saved, RPCs
    avoided, and served ops/sec rise strictly.
    """
    sizes = list(CLIENT_CACHE_SIZES)
    sweep = sweep_client_cache(sizes, ops_per_client=OPS_PER_CLIENT,
                               seed=SEED)
    for size in sizes:
        row = sweep[size]
        if row["hits"] + row["misses"] != row["lookups"]:
            raise ConsistencyError(
                f"client cache conservation violated at {size} B: "
                f"{row['hits']} hits + {row['misses']} misses != "
                f"{row['lookups']} lookups"
            )
    for field, direction in (("server_reads", "falling"),
                             ("hits", "rising"),
                             ("bytes_saved", "rising"),
                             ("rpcs_avoided", "rising"),
                             ("served_ops_per_sec", "rising")):
        series = [sweep[size][field] for size in sizes]
        pairs = zip(series, series[1:])
        ok = (all(a > b for a, b in pairs) if direction == "falling"
              else all(a < b for a, b in pairs))
        if not ok:
            raise ConsistencyError(
                f"client cache scaling: {field} not strictly "
                f"{direction} across {sizes}: {series}"
            )
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


#: Workstation counts swept by the coherence experiment.
WORKSTATION_COUNTS = (1, 2, 4, 8, 16)

#: The hot-set and writer shape shared by both coherence measurements.
#: The per-workstation server-READ envelope follows from it: at most
#: one cold fetch per hot file plus one re-fetch per REPLACE.
HOT_FILES = 12
REPLACES = 10

#: Open+read ops each workstation performs.
OPS_PER_WORKSTATION = 120


def coherence() -> dict:
    """§5 name-based coherence traffic vs workstation count and policy.

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
    above would be vacuous). All checks raise
    :class:`ConsistencyError` so CI fails loudly.
    """
    counts = list(WORKSTATION_COUNTS)
    sweep = coherence_vs_workstations(
        workstation_counts=counts, seed=SEED,
        hot_files=HOT_FILES, n_replaces=REPLACES,
        ops_per_workstation=OPS_PER_WORKSTATION)
    envelope = HOT_FILES + REPLACES
    for count in counts:
        row = sweep[count]
        if row["stale_reads_served"] != 0:
            raise ConsistencyError(
                f"check-always served {row['stale_reads_served']} stale "
                f"reads at {count} workstations; §5 says zero"
            )
        if row["server_reads_per_workstation"] > envelope:
            raise ConsistencyError(
                f"server READs per workstation "
                f"({row['server_reads_per_workstation']}) exceeded the "
                f"single-workstation envelope ({envelope}) at "
                f"{count} workstations: the cache is not shielding "
                f"the file server"
            )
    rpc_series = [sweep[count]["dir_rpcs"] for count in counts]
    if not all(a < b for a, b in zip(rpc_series, rpc_series[1:])):
        raise ConsistencyError(
            f"directory RPCs not strictly rising with workstations: "
            f"{rpc_series}"
        )
    policies = ("always", "after", "session")
    tradeoff = coherence_policy_tradeoff(
        policies=policies, seed=SEED,
        hot_files=HOT_FILES, n_replaces=REPLACES,
        ops_per_workstation=OPS_PER_WORKSTATION)
    per_op = [tradeoff[spec]["dir_rpcs_per_op"] for spec in policies]
    if not all(a > b for a, b in zip(per_op, per_op[1:])):
        raise ConsistencyError(
            f"directory RPCs per op not strictly ordered "
            f"always > after > session: {per_op}"
        )
    if tradeoff["session"]["stale_reads_served"] == 0:
        raise ConsistencyError(
            "session policy served no stale reads: the workload is not "
            "exercising coherence, so the check-always zero is vacuous"
        )
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
        "policy_tradeoff": {spec: tradeoff[spec] for spec in policies},
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


#: name -> (run, committed artifact path relative to the repo root).
#: ``BENCH_PR6.json`` is absent on purpose: it is a frozen wall-clock
#: record, not a regenerable artifact (EXPERIMENTS.md E8).
EXPERIMENTS = {
    "fig2_fig3": (fig2_fig3, "BENCH_PR4.json"),
    "worker_scaling": (worker_scaling, "BENCH_PR5.json"),
    "client_cache_scaling": (client_cache_scaling, "BENCH_PR9.json"),
    "coherence": (coherence, "BENCH_PR10.json"),
}


def write(name: str) -> str:
    """Run experiment ``name`` and (re)write its artifact; returns the
    path written."""
    run, path = EXPERIMENTS[name]
    with open(path, "w", newline="") as handle:
        handle.write(canonical_json(run()))
    return path


def check(name: str) -> str:
    """Run experiment ``name`` and byte-compare against its committed
    artifact. Returns ``""`` when identical, else a unified diff
    (committed -> regenerated)."""
    run, path = EXPERIMENTS[name]
    with open(path, newline="") as handle:
        committed = handle.read()
    fresh = canonical_json(run())
    return "".join(difflib.unified_diff(
        committed.splitlines(keepends=True), fresh.splitlines(keepends=True),
        fromfile=path, tofile=f"{path} (regenerated)"))
