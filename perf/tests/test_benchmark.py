"""Tests of the benchmark itself (not of the program).

Run with ``python -m pytest perf/tests -q``. They sit outside tier-1's
``testpaths`` and use the 1/20 ``--quick`` scale throughout.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perf import api
from perf.compare import EXACT, verdict
from perf.layers import PER_LAYER
from perf.measure import percentile, run_pass, tail_percentile
from perf.run import QUICK_SCALE, WORKLOAD_NAMES
from perf.session import END_TO_END, measure_workload
from perf.workloads import READ, WORKLOADS, SmallFileRpc

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perf/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


# ------------------------------------------------------------------ smoke


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_quick_traced_run_is_correct(name):
    record = measure_workload(name, seed=7, seconds=0.0, trace=True,
                              scale=QUICK_SCALE, import_s=0.1)
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["passes"] >= 3
    assert set(record["end_to_end"]) == {m[0] for m in END_TO_END}
    assert all(entry["value"] > 0 for entry in record["end_to_end"].values())
    layers = record["per_layer"]
    assert set(layers) == {m[0] for m in PER_LAYER}
    shares = [value for key, value in layers.items()
              if key.endswith(".host_self_share")]
    assert math.isclose(sum(shares), 1.0, abs_tol=1e-6)
    # The workloads separate the layers as designed.
    nfs_share = sum(value for key, value in layers.items()
                    if key.startswith("nfs.") and key.endswith("_share"))
    assert (nfs_share > 0) == (name == "nfs_block_io")
    assert (layers["core.server.ops"] == 0) == (name == "nfs_block_io")
    if name == "small_file_rpc":
        assert layers["core.cache.hit_ratio"] == 1.0
        assert layers["disk.reads"] == 0
    if name == "large_file_churn":
        assert layers["core.cache.hit_ratio"] < 1.0
        assert layers["core.cache.evictions"] > 0
    if name == "workstation_coherence":
        assert 0.0 < layers["client.workstation.hit_ratio"] < 1.0
        assert layers["client.named.stale_reads_served"] == 0
        assert layers["directory.rpcs"] >= layers["client.named.opens"]
    else:
        assert layers["client.workstation.lookups"] == 0


def test_contiguity_shows_in_seeks_per_megabyte():
    values = {}
    for name in ("large_file_churn", "nfs_block_io"):
        record = measure_workload(name, seed=7, seconds=0.0, trace=True,
                                  scale=QUICK_SCALE, import_s=0.1)
        values[name] = record["per_layer"]["disk.seeks_per_mb"]
    assert values["nfs_block_io"] > 10 * values["large_file_churn"]


# ------------------------------------------------------- names and contract


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
            == [m[:3] for m in END_TO_END])
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
            == list(PER_LAYER))
    assert SPEC["paths"] == ["perf"]
    assert set(EXACT) == {m[0] for m in END_TO_END if m[3] != "host"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_cli_prints_the_contract_line(trace, section):
    done = cli("--workload", "small_file_rpc", "--seed", "3", "--seconds",
               "0", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert ({name: entry["unit"] for name, entry in last["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC[section]})
    # Every metric is also printed by name, with its unit.
    for m in SPEC[section]:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   for line in done.stdout.splitlines()), m["name"]


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = cli("--workload", "small_file_rpc", "--seed", "1", "--seconds",
               "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ---------------------------------------------------------------- the seed


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_numbers_other_seed_other_ops(name):
    workload = WORKLOADS[name]
    first = run_pass(workload, workload.plan(11, QUICK_SCALE))
    again = run_pass(workload, workload.plan(11, QUICK_SCALE))
    other = run_pass(workload, workload.plan(12, QUICK_SCALE))
    assert first.sim_metrics() == again.sim_metrics()
    assert first.fingerprint() == again.fingerprint()
    assert first.ops == other.ops          # same amount of work...
    assert first.rec.sim_s != other.rec.sim_s   # ...in another order


def test_plans_keep_the_mix_exact():
    for seed in (1, 2):
        plan = WORKLOADS["small_file_rpc"].plan(seed, QUICK_SCALE)
        for ops in plan.client_ops:
            kinds = [op[0] for op in ops]
            assert kinds.count(READ) == 7 * len(kinds) // 10
            live = 0
            for kind in kinds:
                live += {"create": 1, "delete": -1}.get(kind, 0)
                assert live >= 0     # never a DELETE with nothing to delete


# --------------------------------------------------------------- percentile


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(1000) == 99.0      # exactly ten beyond
    assert tail_percentile(999) == 95.0
    assert tail_percentile(40000) == 99.0     # the metric is named p99
    assert tail_percentile(200) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(48) == 75.0
    assert tail_percentile(12) == 50.0
    for n in (48, 100, 200, 1000, 5000):
        pct = tail_percentile(n)
        assert n - math.ceil(pct / 100 * n) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([5.0], 99.0) == 5.0


# ------------------------------------------------------------ output checks


class CorruptsOneRead(SmallFileRpc):
    """Flips one bit of the fifth READ on its way back to the client."""

    def setup(self, plan, traced):
        world = super().setup(plan, traced)
        client = world.rig.bullet_client
        real_read = client.read
        calls = [0]

        def read(cap):
            data = yield from real_read(cap)
            calls[0] += 1
            if calls[0] == 5:
                data = bytes([data[0] ^ 1]) + data[1:]
            return data

        client.read = read
        return world


def test_corrupted_read_is_a_failed_op():
    workload = CorruptsOneRead()
    plan = workload.plan(5, QUICK_SCALE)
    result = run_pass(workload, plan)
    assert result.failed == 1
    assert result.check_failures == []
    assert run_pass(SmallFileRpc(), plan).failed == 0


def test_failed_op_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "small_file_rpc", CorruptsOneRead())
    record = measure_workload("small_file_rpc", seed=5, seconds=0.0,
                              trace=False, scale=QUICK_SCALE, import_s=0.1)
    assert record["failed"] == 1 and record["correct"] is False


def test_program_error_is_a_failed_op():
    class ReadsADeletedFile(SmallFileRpc):
        def setup(self, plan, traced):
            world = super().setup(plan, traced)
            api.run_process(world.rig.env,
                            world.rig.bullet_client.delete(world.shared[0]))
            return world

    workload = ReadsADeletedFile()
    result = run_pass(workload, workload.plan(5, QUICK_SCALE))
    assert result.failed > 0


# ------------------------------------------------------------------ compare


def test_compare_verdicts():
    steady = {"value": 100.0, "q1": 99.0, "q3": 101.0,
              "passes": [99.0, 100.0, 101.0]}
    slower = {"value": 80.0, "q1": 79.0, "q3": 81.0,
              "passes": [79.0, 80.0, 81.0]}
    noisy = {"value": 95.0, "q1": 80.0, "q3": 110.0,
             "passes": [80.0, 95.0, 110.0]}
    assert verdict(steady, steady, "higher", 0.10) == "unchanged"
    assert verdict(steady, slower, "higher", 0.10) == "regressed"
    assert verdict(slower, steady, "higher", 0.10) == "improved"
    assert verdict(steady, slower, "lower", 0.10) == "improved"
    assert verdict(steady, noisy, "higher", 0.10) == "unresolved"
    # Wider than the bound, but every pass of one side beats the other.
    far = {"value": 50.0, "q1": 40.0, "q3": 60.0,
           "passes": [40.0, 50.0, 60.0]}
    assert verdict(steady, far, "higher", 0.10) == "regressed"
    exact = {"value": 15.0}
    assert verdict(exact, {"value": 15.0}, "lower", 0.01) == "unchanged"
    assert verdict(exact, {"value": 15.3}, "lower", 0.01) == "regressed"


def test_compare_cli(tmp_path):
    out = tmp_path / "a.json"
    done = cli("--workload", "nfs_block_io", "--quick", "--seconds", "0",
               "--out", str(out))
    assert done.returncode == 0, done.stderr
    saved = json.loads(out.read_text())
    assert {"commit", "seed", "python", "nproc"} <= set(saved["provenance"])
    entry = saved["workloads"]["nfs_block_io"]
    assert entry["passes"] >= 3
    assert {"q1", "q3", "passes"} <= set(entry["end_to_end"]["host_ops_per_s"])
    done = cli("--compare", str(out), str(out))
    assert done.returncode == 0, done.stderr
    assert "(identical)" in done.stdout and "regressed" not in done.stdout
