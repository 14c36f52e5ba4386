"""The paper's own evaluation (§4), experiments E1–E7 of DESIGN.md §4:
Fig. 1, Fig. 2, Fig. 3, the in-text claims C1–C5 and the abstract's
"factor of three". Each function returns the text of its table under
``benchmarks/results/`` and raises
:class:`~repro.errors.ConsistencyError` (through
:func:`~repro.bench.harness.require`) when the shape the paper reports
does not hold.

Fig. 2, Fig. 3 and the claims are three renderings of **one**
measurement, :func:`figures`.
"""

from __future__ import annotations

import functools

from ..sim import run_process
from ..units import KB, MB
from . import harness
from .harness import SEED, bullet_figure2, make_rig, nfs_figure3, require
from .tables import MeasurementTable, ascii_chart, comparison_lines
from .workload import (PAPER_SIZES, FileSizeDistribution, TraceGenerator,
                       replay_bullet, replay_nfs)

__all__ = ["figures", "fig1_layout", "fig2_bullet", "fig3_nfs",
           "comparison_claims", "workload_replay"]

#: Measurements averaged per Figure 2 / Figure 3 cell.
REPEATS = 3


def figures() -> tuple:
    """The one Fig. 2 / Fig. 3 measurement, under the conditions of §4:
    both servers in the *same* rig — one normally loaded Ethernet, one
    background-load process, identical hardware profiles — Bullet
    first (warm cache for READ, CREATE written through to both disks),
    then NFS (lockf client, 3 MB buffer cache, one write-through disk).
    Returns ``(fig2, fig3, metrics)``, the rig's shared registry last.

    Four artifacts render from it, so it is taken once per process and
    kernel: the memo is keyed by what the layer's one construction site
    builds environments from, and a run under another kernel (tier-1's
    reference leg) measures again."""
    fig2, fig3, rig = _measure(harness.Environment)
    return fig2, fig3, rig.metrics


@functools.lru_cache(maxsize=None)
def _measure(_kernel) -> tuple:
    # The memo keeps the rig, not only its registry: the registry's
    # gauges read the rig's tables, which it does not keep alive.
    rig = make_rig(seed=SEED)
    fig2 = bullet_figure2(rig, PAPER_SIZES, REPEATS)
    fig3 = nfs_figure3(rig, PAPER_SIZES, REPEATS)
    return fig2, fig3, rig


def _both_parts(table: MeasurementTable) -> str:
    return table.render_delay() + "\n\n" + table.render_bandwidth()


def _require_monotone(table: MeasurementTable, slack: float) -> None:
    """Delay grows with file size in every column, within ``slack``."""
    for column in table.columns:
        delays = [table.delay(size, column) for size in PAPER_SIZES]
        require(all(a <= b * slack for a, b in zip(delays, delays[1:])),
                f"{column} delay not monotone in file size: {delays}")


# ------------------------------------------------------- E1: Figure 1

#: Fig. 1's live volume: six 8 KB files, two of them deleted to open
#: holes between the survivors, so the rendered holes are real.
LAYOUT_FILES = 6
LAYOUT_FILE_SIZE = 8 * KB
LAYOUT_DELETED = (1, 3)


def fig1_layout() -> str:
    """E1 — Fig. 1, the Bullet disk layout: a structural picture (inode
    table + contiguous files and holes), regenerated from a live volume
    after a small create/delete workload."""
    rig = make_rig(seed=SEED, with_nfs=False, background_load=False)
    env, client = rig.env, rig.bullet_client
    caps = [run_process(env, client.create(bytes([i]) * LAYOUT_FILE_SIZE, 2))
            for i in range(LAYOUT_FILES)]
    for index in LAYOUT_DELETED:
        run_process(env, client.delete(caps[index]))
    art = rig.bullet.render_layout()
    # The descriptor, the inode table, live files and a hole between
    # them must all be visible.
    for part in ("Disk Descriptor", "Inode Table", "block size   = 512",
                 "file (inode", "free"):
        require(part in art, f"the layout figure shows no {part!r}")
    return art


# ------------------------------------------------- E2/E3: Figure 2

def fig2_bullet() -> str:
    """E2/E3 — Fig. 2: Bullet READ and CREATE+DELETE, delay (a) and
    bandwidth (b), 1 byte … 1 Mbyte."""
    table, _fig3, _metrics = figures()
    # Within 5 % background-load jitter.
    _require_monotone(table, 1.05)
    require(table.delay(1, "READ") < 5e-3,
            "a 1-byte READ is not in the low-millisecond RPC regime")
    # C5: large-file read bandwidth approaches the Amoeba bulk-RPC rate
    # (~650-700 KB/s on 10 Mb/s Ethernet with 68020s).
    big_read = table.bandwidth(1 * MB, "READ")
    require(550 < big_read < 800,
            f"C5: 1 MB READ bandwidth {big_read:.1f} KB/s is not near "
            f"the bulk-RPC rate")
    require(table.bandwidth(64 * KB, "READ") > 0.8 * big_read,
            "READ bandwidth collapses in the mid range")
    for size in PAPER_SIZES:
        require(table.delay(size, "CREATE+DEL") > table.delay(size, "READ"),
                f"creating {size} B on two disks is not slower than "
                f"reading it from the cache")
    return _both_parts(table)


# ------------------------------------------------- E4/E5: Figure 3

def fig3_nfs() -> str:
    """E4/E5 — Fig. 3: SUN NFS READ and CREATE, delay (a) and
    bandwidth (b), 1 byte … 1 Mbyte."""
    _fig2, table, _metrics = figures()
    # Sub-KB NFS operations are dominated by synchronous metadata disk
    # writes whose exact cost varies with arm position: 15 % jitter.
    _require_monotone(table, 1.15)
    # C4: "reading and creating 1 Mbyte NFS files result in lower
    # bandwidths than reading and creating 64 Kbyte NFS files."
    for column in table.columns:
        require(table.bandwidth(1 * MB, column)
                < table.bandwidth(64 * KB, column),
                f"C4: NFS {column} bandwidth does not dip at 1 MB")
    require(table.delay(64 * KB, "CREATE") > 2 * table.delay(64 * KB, "READ"),
            "synchronous per-block writes do not make CREATE much "
            "slower than READ")
    return _both_parts(table)


# ------------------------------------------- E6: the in-text claims

def comparison_claims() -> str:
    """E6 — the §4/§5 in-text claims, checked numerically.

    C1: "read operations three to six times better than the SUN NFS
    file server for all file sizes." C2: "for large files the bandwidth
    is ten times that of SUN NFS." C3: "for very large files
    (> 64 Kbytes) the Bullet server even achieves a higher bandwidth
    for writing than SUN NFS achieves for reading." Headline:
    "outperforms ... by more than a factor of three". (C4, the NFS
    1 MB dip, is printed here and checked where it is measured, in
    :func:`fig3_nfs`.)"""
    fig2, fig3, _metrics = figures()
    # C1, with a hair of tolerance at the band edges (the paper's own
    # numbers straddle the band).
    for size in PAPER_SIZES:
        speedup = fig3.delay(size, "READ") / fig2.delay(size, "READ")
        require(2.5 <= speedup <= 7.0,
                f"C1 out of band at {size} B: {speedup:.1f}x")
    # C2: "about ten times"; our substrate lands lower (EXPERIMENTS.md
    # E6) but far above parity.
    write_ratio = (fig2.bandwidth(1 * MB, "CREATE+DEL")
                   / fig3.bandwidth(1 * MB, "CREATE"))
    require(write_ratio > 4.0, f"C2: write ratio only {write_ratio:.1f}x")
    for size in (64 * KB, 1 * MB):
        require(fig2.bandwidth(size, "CREATE+DEL")
                > fig3.bandwidth(size, "READ"), f"C3 fails at {size} B")
    total_bullet = sum(fig2.delay(size, "READ") for size in PAPER_SIZES)
    total_nfs = sum(fig3.delay(size, "READ") for size in PAPER_SIZES)
    require(total_nfs > 3.0 * total_bullet,
            "reads overall are not a factor of three faster")
    chart = ascii_chart(
        {"Bullet READ": fig2, "Bullet CREATE+DEL": fig2,
         "NFS READ": fig3, "NFS CREATE": fig3},
        {"Bullet READ": "READ", "Bullet CREATE+DEL": "CREATE+DEL",
         "NFS READ": "READ", "NFS CREATE": "CREATE"},
    )
    return comparison_lines(fig2, fig3) + "\n\n" + chart


# ------------------------------------ E7: the factor of three, replayed

#: The replayed trace: the cited size distribution (median 1 KB, 99 %
#: < 64 KB) capped at 256 KB, the default read-heavy mix, its own seed.
REPLAY_SEED = 7
REPLAY_MAX_SIZE = 256 * KB
REPLAY_OPS = 120
REPLAY_PREPOPULATE = 20


def workload_replay() -> str:
    """E7 — the abstract's "outperforms traditional file servers like
    SUN's NFS by more than a factor of three" on a realistic workload:
    one trace replayed against both servers, total completion time
    compared."""
    sizes = FileSizeDistribution(maximum=REPLAY_MAX_SIZE)
    trace = TraceGenerator(seed=REPLAY_SEED, sizes=sizes).generate(
        n_ops=REPLAY_OPS, prepopulate=REPLAY_PREPOPULATE)
    rig = make_rig(seed=SEED)
    bullet_time = sum(replay_bullet(rig, trace, 2).values())
    nfs_time = sum(replay_nfs(rig, trace).values())
    ratio = nfs_time / bullet_time
    require(ratio > 3.0, f"overall speedup only {ratio:.2f}x")
    count = {kind: sum(op.kind == kind for op in trace)
             for kind in ("create", "read", "delete")}
    return "\n".join([
        "Realistic-workload replay (E7)",
        "=" * 50,
        f"trace: {len(trace)} ops ({count['create']} create / "
        f"{count['read']} read / {count['delete']} delete), "
        f"sizes median 1KB, 99% < 64KB",
        f"Bullet total completion: {bullet_time * 1000:10.1f} ms",
        f"NFS    total completion: {nfs_time * 1000:10.1f} ms",
        f"speedup: {ratio:.2f}x (paper claims 'more than a factor of three')",
    ])
