"""The analysis driver: collect files, index, run rules.

This is the programmatic face of the linter; the CLI in
:mod:`repro.analysis.cli` and the test suite both call
:func:`analyze_paths`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import BadRequestError
from .framework import Config, FileContext, all_rules
from .index import ProjectIndex

__all__ = ["AnalysisResult", "ParseError", "analyze_paths", "collect_files",
           "module_name_for"]


@dataclass(frozen=True)
class ParseError:
    """A file the analyzer could not parse (reported, exit code 2)."""

    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:1: E999 {self.message}"


@dataclass
class AnalysisResult:
    findings: list = field(default_factory=list, init=False)
    parse_errors: list = field(default_factory=list, init=False)
    files_checked: int = field(default=0, init=False)
    rules_run: list = field(default_factory=list, init=False)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    @property
    def exit_code(self) -> int:
        if self.parse_errors:
            return 2
        return 1 if self.findings else 0


def collect_files(paths: Iterable[str]) -> list:
    """Expand files/directories into a sorted list of ``.py`` paths."""
    collected = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                for name in sorted(names):
                    if name.endswith(".py"):
                        collected.append(os.path.join(root, name))
        else:
            raise BadRequestError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(os.path.normpath(p) for p in collected))


def module_name_for(path: str) -> str:
    """A dotted module name for ``path``.

    Rooted at the last path component named ``repro`` (the package root)
    when present, so rules and the index see the same names the code
    imports; otherwise the whole path is dotted, keeping module names
    unique per file (two unrelated ``core/server.py`` fixtures must not
    merge in the project index).
    """
    parts = [p for p in path.replace(os.sep, "/").split("/")
             if p not in ("", ".", "..")]
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        anchor = 0
    dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
    return ".".join(dotted) or stem


def analyze_paths(paths: Iterable[str],
                  config: Optional[Config] = None) -> AnalysisResult:
    """Run every (selected) rule over the given files/directories."""
    config = config or Config()
    result = AnalysisResult()
    parsed = []
    for path in collect_files(paths):
        posix = path.replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            result.parse_errors.append(
                ParseError(path=posix, line=exc.lineno or 1,
                           message=f"syntax error: {exc.msg}")
            )
            continue
        parsed.append((posix, module_name_for(posix), tree))

    index = ProjectIndex.build(
        (path, module, tree) for path, module, tree in parsed)
    rules = all_rules(config.select)
    result.rules_run = [rule.id for rule in rules]
    for path, module, tree in parsed:
        ctx = FileContext(path=path, module=module, tree=tree, index=index,
                          config=config)
        for rule in rules:
            result.findings.extend(rule.check(ctx))
        result.files_checked += 1
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
