"""Per-rule tests for repro.analysis over the fixtures in
``tests/analysis_fixtures/``.

Every rule gets a positive test (the bad fixture yields exactly the
expected findings, at the expected lines, with no cross-rule noise) and
a negative test (the good fixture is clean). Config allowlists,
scoping, and rule selection are covered separately.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Config, all_rules, analyze_paths, rule_ids
from repro.errors import BadRequestError

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

#: Every registered rule.
ALL_RULES = ("D001", "D002", "D003", "S001", "C001", "A001")

#: rule -> (bad fixture, expected finding lines, good fixture)
CASES = {
    "D001": ("d001_bad.py", [8, 9], "d001_good.py"),
    "D002": ("d002_bad.py", [3, 10, 11, 12, 17], "d002_good.py"),
    "D003": ("repro/sim/d003_bad.py", [12, 14, 17, 19, 21],
             "repro/sim/d003_good.py"),
    "S001": ("s001_bad.py", [9, 10, 19, 20], "s001_good.py"),
    "C001": ("c001_bad/core/server.py", [14], "c001_good/core/server.py"),
    "A001": ("a001_bad.py", [5, 7], "a001_good.py"),
}


def run(path: Path, config: Config = None):
    return analyze_paths([str(path)], config)


def test_registry_has_all_rules():
    assert set(rule_ids()) == set(ALL_RULES)
    assert len(all_rules()) == len(ALL_RULES)


@pytest.mark.parametrize("rule", sorted(CASES))
def test_bad_fixture_positive(rule):
    bad, lines, _good = CASES[rule]
    result = run(FIXTURES / bad)
    assert not result.parse_errors
    # All rules ran, yet only the rule under test fires — the fixtures
    # double as cross-rule false-positive checks.
    got = [(f.rule, f.line) for f in result.findings]
    assert got == [(rule, line) for line in lines]
    assert result.exit_code == 1


@pytest.mark.parametrize("rule", sorted(CASES))
def test_good_fixture_negative(rule):
    _bad, _lines, good = CASES[rule]
    result = run(FIXTURES / good)
    assert not result.parse_errors
    assert result.findings == []
    assert result.clean
    assert result.exit_code == 0


def test_findings_carry_rendered_location():
    result = run(FIXTURES / "a001_bad.py")
    rendered = result.findings[0].render()
    assert "a001_bad.py:5:" in rendered
    assert "A001" in rendered


# ------------------------------------------------- allowlists and scope

def _moved(fixture: Path, to: Path) -> Path:
    """A copy of ``fixture`` at ``to``: the scopes are path patterns."""
    to.parent.mkdir(parents=True, exist_ok=True)
    to.write_text(fixture.read_text())
    return to


def test_rng_allowlist(tmp_path):
    # The D002 fixture moved to the one allowed path is clean.
    assert run(FIXTURES / "d002_bad.py").findings
    assert run(_moved(FIXTURES / "d002_bad.py",
                      tmp_path / "sim" / "rng.py")).clean


def test_d003_only_fires_in_ordered_scope(tmp_path):
    # The same bad file outside the replay core is clean: D003 is a
    # replay-core rule, not a whole-program style rule.
    bad = FIXTURES / "repro" / "sim" / "d003_bad.py"
    assert run(bad).findings
    assert run(_moved(bad, tmp_path / "tools" / "d003_bad.py")).clean


def test_c001_only_fires_in_server_scope(tmp_path):
    bad = FIXTURES / "c001_bad" / "core" / "server.py"
    assert run(bad).findings
    assert run(_moved(bad, tmp_path / "core" / "handlers.py")).clean


# ------------------------------------------------------------ selection

def test_select_restricts_rules():
    config = Config(select=("D001",))
    result = run(FIXTURES / "d002_bad.py", config)
    assert result.clean
    assert result.rules_run == ["D001"]


def test_select_unknown_rule_rejected():
    with pytest.raises(BadRequestError):
        analyze_paths([str(FIXTURES / "d001_good.py")],
                      Config(select=("Z999",)))


# ------------------------------------------------------------- ordering

def test_findings_sorted_by_path_then_line():
    result = analyze_paths([str(FIXTURES)])
    keys = [(f.path, f.line, f.col, f.rule) for f in result.findings]
    assert keys == sorted(keys)
    # The whole fixture tree has findings from every rule.
    assert {f.rule for f in result.findings} == set(CASES)


# ------------------------------------------------ kill matrix (DESIGN §11)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: A one-file scenario over the local server API with the lockset
#: checker armed: create, touch, restrict and delete one file, each in
#: its own process.
SCENARIO = """\
from repro import (DEFAULT_TESTBED, BulletServer, Environment,
                   MirroredDiskSet, VirtualDisk, run_process)
from repro.core.lockset import LocksetChecker, activate

activate(LocksetChecker())
env = Environment()
disks = [VirtualDisk(env, DEFAULT_TESTBED.disk, name=f"d{i}") for i in (0, 1)]
server = BulletServer(env, MirroredDiskSet(env, disks), DEFAULT_TESTBED)
server.format()
run_process(env, server.boot())
cap = run_process(env, server.create(b"x" * 512))
run_process(env, server.touch(cap))
run_process(env, server.restrict_cap(cap, 0xFF))
run_process(env, server.delete(cap))
print("survived")
"""

#: name -> (file under src/repro, needle, replacement, catcher). Each
#: mutant plants one bug class in the real source; the catcher is the
#: layer the audits (DESIGN.md §11a, EXPERIMENTS.md E15) found to own
#: that class: a rule id (static), or the text the scenario dies with
#: (dynamic). Every static mutant here passed all of tier-1, the
#: workers-4 lockset leg and the model checker when it was planted: the
#: rule is what catches it.
MUTANTS = {
    # A host-clock stamp on a name binding: the `after(dt)` currency
    # policy then ages bindings by wall time.
    "binding-stamped-by-the-host-clock": (
        "client/named.py",
        "            self._bindings[name] = _Binding(bound, self.env.now)\n",
        "            import time\n"
        "            self._bindings[name] = _Binding(bound, time.time())\n",
        "D001",
    ),
    # Directory secrets drawn from the process-global RNG: capabilities
    # differ from run to run and no artifact holds one.
    "directory-secret-from-global-rng": (
        "directory/server.py",
        "        secret = incarnation.mint_secret()\n",
        "        import random\n"
        "        secret = random.randint(1, (1 << 48) - 1)\n",
        "D002",
    ),
    # The waits-for traversal walks a set of processes in hash (memory
    # address) order: the deadlock cycle it reports stops being
    # replay-stable.
    "blockers-in-hash-order": (
        "core/locks.py",
        "        return sorted(procs, key=lambda p: p._serial)\n",
        "        return list(procs)\n",
        "D003",
    ),
    # rename() builds the generator that deletes the displaced file and
    # drops it: the file is never freed.
    "rename-never-discards-the-displaced-file": (
        "unixemu/fs.py",
        "            yield from self._discard(displaced)\n",
        "            self._discard(displaced)\n",
        "S001",
    ),
    # NFS WRITE reads the inode itself (same cost, so every simulated
    # number holds) and no longer checks the handle's generation.
    "nfs-write-inlines-the-inode-read": (
        "nfs/server.py",
        "        yield from self._resolve(fs, fh)\n"
        "        written = yield from",
        "        yield from fs.inode_read(fh.inum)\n"
        "        written = yield from",
        "C001",
    ),
    # An error with no wire status on a path no test walks.
    "assertion-error-for-a-missing-capability": (
        "core/server.py",
        'raise BadRequestError("request carries no capability")',
        'raise AssertionError("request carries no capability")',
        "A001",
    ),
    # Audit mutant #10: the lives table written by a handler that takes
    # no lock. The table reports its own writes, so the lockset checker
    # sees this one like any other.
    "restrict-writes-lives": (
        "core/server.py",
        "        self.stats.restricts.inc()\n",
        "        self.stats.restricts.inc()\n"
        "        incarnation.lives[number] = self.testbed.bullet.max_lives\n",
        "RaceReport: lockset violation on bullet.lives",
    ),
    # Audit mutant #7: an unbounded wait under a write grant.
    "delete-blocks-under-write-grant": (
        "core/server.py",
        "            number, inode = yield from self._check(incarnation, cap,\n"
        "                                                   RIGHT_DELETE)\n",
        "            number, inode = yield from self._check(incarnation, cap,\n"
        "                                                   RIGHT_DELETE)\n"
        "            from ..sim.resources import Store\n"
        "            yield Store(self.env).get()\n",
        "deadlock: event will never fire",
    ),
    # Audit mutant #9: TOUCH writes the lives table without its lock.
    "touch-without-its-lock": (
        "core/server.py",
        "        with incarnation.locks.writing(cap.object) as lock:\n"
        "            yield lock.grant\n"
        "            number, _inode = yield from self._check(incarnation, cap, 0)\n",
        "        if True:\n"
        "            number, _inode = yield from self._check(incarnation, cap, 0)\n",
        "RaceReport: lockset violation on bullet.lives",
    ),
}


def run_scenario(tree: Path):
    """Run SCENARIO against the ``repro`` package under ``tree``."""
    return subprocess.run(
        [sys.executable, "-c", SCENARIO], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree)}, timeout=60)


def test_scenario_survives_the_unmutated_tree():
    done = run_scenario(SRC.parent)
    assert (done.returncode, done.stdout) == (0, "survived\n"), done.stderr


def test_every_registered_rule_holds_a_committed_mutant():
    catchers = {catcher for _f, _n, _r, catcher in MUTANTS.values()}
    assert catchers >= set(rule_ids())


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_committed_mutant_is_killed_by_the_layer_that_owns_it(name, tmp_path):
    relative, needle, replacement, catcher = MUTANTS[name]
    source = (SRC / relative).read_text()
    assert source.count(needle) == 1, f"{name}: mutation target moved"
    mutated = tmp_path / "repro" / relative
    if catcher in rule_ids():
        mutated.parent.mkdir(parents=True)
        mutated.write_text(source.replace(needle, replacement))
        result = run(mutated)
        assert {f.rule for f in result.findings} == {catcher}
        # Sole static catcher: every other rule passes the mutant.
        others = tuple(r for r in rule_ids() if r != catcher)
        assert run(mutated, Config(select=others)).clean
    else:
        shutil.copytree(SRC, tmp_path / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        mutated.write_text(source.replace(needle, replacement))
        done = run_scenario(tmp_path)
        assert done.returncode != 0
        assert catcher in done.stderr
