"""The dogfood gate: ``src/repro`` must be clean under its own linter.

This is the satellite that makes the enforced invariants permanent —
any future commit that reads the wall clock, forgets a rights check, or
forks an unawaited process fails tier-1 here.

Also covers the CLI surface: exit codes, file:line reporting, JSON
output, and the rule catalogue.
"""

import json
from pathlib import Path

from repro.analysis import analyze_paths, rule_ids
from repro.analysis.cli import main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


def test_src_repro_is_clean():
    result = analyze_paths([str(SRC)])
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.clean, f"src/repro has analyzer findings:\n{rendered}"
    # Sanity: this actually analyzed the tree with every rule.
    assert result.files_checked >= 60
    assert result.rules_run == sorted(rule_ids())


def test_src_repro_is_clean_under_strict_pragmas():
    # The strictest pragma policy is none at all: the analyzer has no
    # suppression pragma, so a `# repro: allow(...)` left in the tree
    # would only pretend to excuse a finding.
    excused = [f"{path.relative_to(SRC)}:{number}"
               for path in sorted(SRC.rglob("*.py"))
               for number, line in enumerate(
                   path.read_text().splitlines(), 1)
               if "repro: allow" in line]
    assert not excused, excused


def test_cli_clean_tree_exits_zero(capsys):
    assert main([str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_cli_findings_exit_one_with_location(capsys):
    bad = FIXTURES / "d001_bad.py"
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "d001_bad.py:8:" in out
    assert "D001" in out


def test_cli_json_format(capsys):
    bad = FIXTURES / "a001_bad.py"
    assert main(["--format", "json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert [f["line"] for f in payload["findings"]] == [5, 7]
    assert all(f["rule"] == "A001" for f in payload["findings"])


def test_cli_parse_error_exits_two(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    assert main([str(broken)]) == 2
    out = capsys.readouterr().out
    assert "broken.py:1:" in out
    assert "E999" in out


def test_cli_no_paths_exits_two(capsys):
    assert main([]) == 2


def test_cli_unknown_path_exits_two(capsys):
    assert main(["no/such/dir"]) == 2


def test_cli_select(capsys):
    bad = FIXTURES / "d002_bad.py"
    assert main(["--select", "A001", str(bad)]) == 0
    assert main(["--select", "Z999", str(bad)]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in rule_ids():
        assert rule in out

