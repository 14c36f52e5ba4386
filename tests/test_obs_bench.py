"""Integration tests for the observability plane: the PR 4 accounting
bugfixes (cache double count, error chokepoint, MODIFY bytes), the
shared-registry wiring, request spans end-to-end, and the bench plane
(every experiment in the table reproduces its committed artifact)."""

import json
from pathlib import Path

import pytest

from repro.capability import Capability
from repro.bench.experiments import (EXPERIMENTS, artifact_path, check,
                                     write)
from repro.client import BulletClient
from repro.disk import VirtualDisk
from repro.errors import (BadRequestError, ConsistencyError, NotFoundError,
                          Status)
from repro.net import Ethernet, RpcRequest, RpcTransport
from repro.nfs import NfsServer
from repro.obs import pair_spans, render_json, render_text
from repro.obs.__main__ import main as obs_main
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, Tracer, run_process
from repro.units import KB

from conftest import SMALL_DISK, make_bullet, reference_env, small_testbed


# ------------------------------------------------- cache double count


def test_cache_is_the_single_counting_authority(env, bullet):
    """The PR 4 bugfix: the server's inode.index probe delegates to the
    cache, so a request can never be counted twice."""
    stats = bullet.cache.stats
    cap = run_process(env, bullet.create(b"x" * 1024, 1))
    assert stats.lookups == 0  # create inserts; it does not probe
    run_process(env, bullet.read(cap))
    assert (stats.lookups, stats.hits, stats.misses) == (1, 1, 0)
    bullet.evict(cap.object)
    run_process(env, bullet.read(cap))
    assert (stats.lookups, stats.hits, stats.misses) == (2, 1, 1)
    run_process(env, bullet.read(cap))
    assert (stats.lookups, stats.hits, stats.misses) == (3, 2, 1)


def test_conservation_and_status_hit_rate_match_registry(env, bullet):
    caps = [run_process(env, bullet.create(bytes(s), 1))
            for s in (1, 256, 4 * KB, 64 * KB)]
    for cap in caps:
        run_process(env, bullet.read(cap))
    bullet.evict(caps[0].object)
    run_process(env, bullet.read(caps[0]))
    run_process(env, bullet.modify(caps[1], 0, 0, b"prefix", 1))
    run_process(env, bullet.delete(caps[2]))

    reg = bullet.metrics
    lookups = reg.value("repro_cache_lookups_total", cache="bullet")
    hits = reg.value("repro_cache_hits_total", cache="bullet")
    misses = reg.value("repro_cache_misses_total", cache="bullet")
    assert hits + misses == lookups
    assert lookups == bullet.cache.stats.lookups
    status = bullet.status()
    assert status["cache_hit_rate"] == pytest.approx(hits / (hits + misses))
    # std_status reads the very same registry counters.
    assert status["reads"] == reg.value("repro_server_reads_total",
                                        server="bullet")


# -------------------------------------------------- MODIFY byte accounting


def test_modify_accounts_bytes(env, bullet):
    cap = run_process(env, bullet.create(b"hello world", 1))
    assert bullet.stats.bytes_modified == 0
    run_process(env, bullet.modify(cap, 6, 5, b"obs", 1))
    # New file is "hello obs" (9 bytes); MODIFY now accounts it.
    assert bullet.stats.bytes_modified == 9
    # Conservation: the derived file's bytes also flow through CREATE.
    assert bullet.stats.bytes_created == 11 + 9


# ------------------------------------------------------ error chokepoint


@pytest.fixture
def rpc_rig(env):
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    client = BulletClient(env, rpc, bullet.port)
    return bullet, rpc, client


def test_error_replies_route_through_one_chokepoint(env, rpc_rig):
    bullet, rpc, client = rpc_rig
    good = run_process(env, client.create(b"ok", 1))
    bogus = Capability(port=bullet.port, object=9999, rights=0xFF, check=1)
    with pytest.raises(NotFoundError):
        run_process(env, client.read(bogus))
    # An unknown opcode is a different error family through the same path.
    reply = run_process(
        env, rpc.trans(bullet.port, RpcRequest(opcode=99, cap=good))
    )
    assert reply.status == int(Status.BAD_REQUEST)
    reg = bullet.metrics
    assert reg.value("repro_server_error_replies_total",
                     server="bullet", status="NOT_FOUND") == 1
    assert reg.value("repro_server_error_replies_total",
                     server="bullet", status="BAD_REQUEST") == 1
    # The per-status family and the scalar errors counter agree.
    assert reg.total("repro_server_error_replies_total") == 2
    assert bullet.stats.errors == 2


def test_nfs_errors_are_counted(env):
    """Before PR 4 the NFS serve loop marshalled errors without any
    accounting at all."""
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    disk = VirtualDisk(env, SMALL_DISK, name="nfsdisk")
    server = NfsServer(env, disk, small_testbed(), transport=rpc)
    server.format()
    run_process(env, server.boot())
    reply = run_process(
        env, rpc.trans(server.port, RpcRequest(opcode=99))
    )
    assert reply.status == int(Status.BAD_REQUEST)
    assert server.metrics.value("repro_server_error_replies_total",
                                server="nfs", status="BAD_REQUEST") == 1


# ------------------------------------------------------------ spans


def test_read_decomposes_into_spans(env):
    tracer = Tracer(env=env, categories={"span"})
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile(), tracer=tracer)
    bullet = make_bullet(env, transport=rpc, tracer=tracer)
    client = BulletClient(env, rpc, bullet.port)

    cap = run_process(env, client.create(b"d" * 4096, 1))
    run_process(env, client.read(cap))          # warm: cache only
    bullet.evict(cap.object)
    run_process(env, client.read(cap))          # cold: disk + cache

    spans = pair_spans(tracer.select("span"))   # raises if any unclosed
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    assert {"rpc.trans", "rpc.queue", "server.op",
            "server.cache", "server.net"} <= set(by_name)
    assert len(by_name["server.disk"]) == 1     # only the cold read
    assert len(by_name["server.cache"]) == 2    # both reads memcpy
    # Every server.op nests inside some rpc.trans window.
    for op in by_name["server.op"]:
        assert any(t.begin <= op.begin and op.end <= t.end
                   for t in by_name["rpc.trans"])
    # The op-latency histogram saw both reads.
    hist = bullet.metrics.find("repro_server_op_seconds",
                               server="bullet", op="READ")
    assert hist is not None and hist.count == 2
    assert hist.total == pytest.approx(
        sum(s.duration for s in by_name["server.op"]
            if dict(s.begin_fields).get("op") == "READ"))


# ------------------------------------------------ shared-registry wiring


def test_make_rig_shares_one_registry():
    from repro.bench import make_rig

    rig = make_rig(background_load=False, nfs_churn=False)
    reg = rig.metrics
    assert rig.bullet.metrics is reg
    assert rig.nfs.metrics is reg
    assert rig.rpc.metrics is reg
    assert rig.bullet.cache.stats.registry is reg
    # Disks and the segment registered their instruments there too.
    assert reg.find("repro_disk_writes_total", disk="bullet-d0") is not None
    assert reg.find("repro_ethernet_packets_total",
                    segment="ether") is not None
    assert reg.find("repro_freelist_free_units",
                    area="bullet:disk") is not None


def test_freelist_gauges_track_the_arena(env, bullet):
    reg = bullet.metrics
    disk_free = reg.find("repro_freelist_free_units", area="bullet:disk")
    assert disk_free.value == bullet.disk_free.free_units
    run_process(env, bullet.create(bytes(8 * KB), 1))
    assert disk_free.value == bullet.disk_free.free_units
    frag = reg.find("repro_freelist_fragmentation", area="bullet:disk")
    assert frag.value == bullet.disk_free.external_fragmentation()
    # The cache arena's gauges survive a compaction (arena rebuild).
    cache_free = reg.find("repro_freelist_free_units", area="bullet:cache")
    assert cache_free.value == bullet.cache.free_bytes
    bullet.cache.compact()
    run_process(env, bullet.create(bytes(4 * KB), 1))
    assert cache_free.value == bullet.cache.free_bytes


def test_retransmit_counter_lives_in_the_registry(env):
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    rpc._retransmits.inc(3)
    assert rpc.metrics.value("repro_rpc_retransmits_total") == 3


# ------------------------------------------------------ determinism


def _seeded_workload(seed: int):
    env = Environment()
    bullet = make_bullet(env, master_seed=seed)
    caps = [run_process(env, bullet.create(bytes((i + 1) * 100), 2))
            for i in range(5)]
    for cap in caps:
        run_process(env, bullet.read(cap))
    bullet.evict(caps[3].object)
    run_process(env, bullet.read(caps[3]))
    run_process(env, bullet.delete(caps[0]))
    return bullet.metrics


def test_same_seed_runs_export_byte_identically():
    a = _seeded_workload(1989)
    b = _seeded_workload(1989)
    assert render_text(a) == render_text(b)
    assert render_json(a) == render_json(b)


# ------------------------------------------------------ bench plane

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_regenerates_committed_artifact(name, monkeypatch):
    """The ROADMAP fence, in tier-1: at full scale every experiment
    reproduces its committed artifact byte for byte."""
    monkeypatch.chdir(REPO)
    assert check(name) == ""


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_regenerates_under_the_reference_kernel(name, monkeypatch):
    """The same fence with every fast path off. The Ethernet segment and
    packet-train collapses and the disk's analytic operation are
    *caller-obligation* fast paths the hypothesis kernel suite cannot
    reach; this whole-stack oracle can. ``harness.Environment`` is the
    experiment layer's single construction site."""
    monkeypatch.setattr("repro.bench.harness.Environment", reference_env)
    monkeypatch.chdir(REPO)
    assert check(name) == ""


@pytest.fixture
def replayed(monkeypatch, tmp_path):
    """Run the bench plane in a scratch copy of the repository root (the
    committed artifacts and nothing else) with every experiment
    replaying its committed bytes verbatim. The tests above already
    hold the real runs to those bytes; the tests below are about paths,
    diffs and exit codes, not the simulations."""
    for name, (_run, (path, _render)) in list(EXPERIMENTS.items()):
        committed = (REPO / artifact_path(name)).read_text()
        scratch = tmp_path / artifact_path(name)
        scratch.parent.mkdir(parents=True, exist_ok=True)
        scratch.write_text(committed)
        monkeypatch.setitem(
            EXPERIMENTS, name, (lambda text=committed: text, (path, str)))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _tree(root):
    """Every file under ``root``, by relative path."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_bench_cli_writes_exactly_the_tables_path(name, replayed):
    before = _tree(replayed)
    (replayed / artifact_path(name)).write_text("stale\n")
    assert obs_main(["bench", name]) == 0
    assert _tree(replayed) == before
    assert obs_main(["bench", name, "--check"]) == 0


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_check_reports_a_tampered_artifact(name, replayed, capsys):
    path = replayed / artifact_path(name)
    first_line = path.read_text().splitlines(keepends=True)[0]
    tampered = "tampered " + path.read_text()
    path.write_text(tampered)
    diff = check(name)
    assert f"-tampered {first_line}+{first_line}" in diff
    assert obs_main(["bench", name, "--check"]) == 1
    assert diff in capsys.readouterr().out
    assert path.read_text() == tampered  # --check never writes


def test_a_failed_shape_check_names_the_experiment_and_writes_nothing(
        monkeypatch, tmp_path):
    """An experiment whose own shape check fails raises — through
    ``write`` as through ``check`` — a ConsistencyError naming it, and
    its committed artifact is left as it was. Here Fig. 1 is rendered
    from an empty volume, so the picture has no file to show."""
    monkeypatch.setattr("repro.bench.paper.LAYOUT_FILES", 0)
    monkeypatch.setattr("repro.bench.paper.LAYOUT_DELETED", ())
    artifact = tmp_path / artifact_path("fig1_layout")
    artifact.parent.mkdir(parents=True)
    artifact.write_text("as committed\n")
    monkeypatch.chdir(tmp_path)
    for emit in (write, check):
        with pytest.raises(ConsistencyError, match="^fig1_layout: .*file"):
            emit("fig1_layout")
    assert artifact.read_text() == "as committed\n"


def test_bench_cli_rejects_an_unknown_experiment(replayed):
    before = _tree(replayed)
    with pytest.raises(SystemExit) as exit_info:
        obs_main(["bench", "no_such_experiment"])
    assert exit_info.value.code == 2
    assert _tree(replayed) == before


@pytest.mark.parametrize("argv", [["bench"], ["bench", "--check"]])
def test_bench_cli_refuses_outside_the_repository_root(
        argv, monkeypatch, tmp_path, capsys):
    """Away from the committed artifacts the CLI refuses in one line,
    before simulating anything, and leaves no stray files behind."""
    def must_not_run():
        raise AssertionError("an experiment ran outside the repo root")

    for name, (_run, form) in list(EXPERIMENTS.items()):
        monkeypatch.setitem(EXPERIMENTS, name, (must_not_run, form))
    monkeypatch.chdir(tmp_path)
    assert obs_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "run from the repository root" in captured.err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(BadRequestError):
        check("coherence")


def test_committed_bench_artifact_is_current_schema():
    top = json.loads((REPO / "BENCH_fig2_fig3.json").read_text())
    assert top["meta"]["seed"] == 1989
    for figure in ("fig2_bullet", "fig3_nfs"):
        for row in top[figure].values():
            for cell in row.values():
                assert set(cell) == {"delay_ms", "bandwidth_kb_s"}
    inv = top["invariants"]
    assert inv["cache_hits"] + inv["cache_misses"] == inv["cache_lookups"]


def test_committed_bench_pr5_artifact_is_current_schema():
    top = json.loads((REPO / "BENCH_worker_scaling.json").read_text())
    assert top["meta"]["seed"] == 1989
    scaling = top["throughput_vs_workers_ops_per_sec"]
    assert scaling["1"] < scaling["2"] < scaling["4"]
    for discipline in ("fcfs", "elevator"):
        cell = top["cold_read_disciplines"][discipline]
        assert set(cell) == {"ops_per_sec", "seeks"}
    # The elevator must be load-bearing in the committed artifact.
    assert (top["cold_read_disciplines"]["elevator"]["seeks"]
            < top["cold_read_disciplines"]["fcfs"]["seeks"])
