"""Rule framework for the invariant linter.

The analyzer is a small, dependency-free static-analysis engine over the
project's own source. It exists because the reproduction's core promises
are *conventions* that nothing enforced: the sim kernel's "no wall-clock
time or global RNG is consulted anywhere" (:mod:`repro.sim.core`), the
capability discipline of the servers (every opcode handler must pass a
``require(...)`` gate before touching server state, paper §2.2), and the
process discipline of the simulator (a generator process that is never
``yield``-ed silently runs un-timed). Each of those conventions is now a
:class:`Rule` with machine-checked findings.

Pieces:

* :class:`Finding` — one violation: rule id, path, line, column, message.
* :class:`Rule` — base class; subclasses declare ``id``/``title``/
  ``rationale`` and implement :meth:`Rule.check` over a
  :class:`FileContext`.
* ``register``/``all_rules`` — the rule registry; the CLI and tests
  enumerate rules through it.
* :class:`Suppressions` — per-line ``# repro: allow(<rule>[, <rule>...])``
  pragmas. A pragma on its own line applies to the next code line, so
  multi-line statements can be suppressed too.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Set, Tuple)

from ..errors import BadRequestError

if TYPE_CHECKING:  # import cycle at runtime only (engine imports both)
    from .index import ProjectIndex

__all__ = [
    "Config",
    "FileContext",
    "Finding",
    "Rule",
    "Suppressions",
    "all_rules",
    "register",
    "rule_ids",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Config:
    """Which rules run, and the scoping they run under.

    The scopes are constants: tuples of :mod:`fnmatch` patterns matched
    against the analyzed file's POSIX-style path, encoding this repo's
    layout (fixture trees mirror it). D001 has no allowlist: the whole
    tree runs on simulated time.
    """

    #: Files allowed to touch global randomness (D002). ``sim/rng.py`` is
    #: the one legitimate consumer: it wraps ``random.Random`` behind
    #: :class:`repro.sim.rng.SeededStream`.
    rng_allow = ("*/sim/rng.py",)
    #: Where unordered-iteration (D003) is enforced: the deterministic
    #: replay core.
    ordered_scope = ("*/repro/sim/*", "*/repro/core/*", "*/repro/net/*")
    #: The RPC server modules whose opcode handlers must pass a rights
    #: check (C001).
    server_scope = (
        "*/core/server.py",
        "*/directory/server.py",
        "*/logsvc/server.py",
        "*/nfs/server.py",
    )
    #: Validator functions accepted by C001 in addition to anything that
    #: transitively calls ``require``. ``_resolve`` is the NFS server's
    #: stale-handle generation check — NFS v2 is deliberately capability-
    #: free (it is the paper's §4 comparison target), so its handle check
    #: is the closest analogue of a rights gate.
    extra_validators = ("_resolve",)
    #: Restrict the run to these rule ids (empty means: all registered).
    select: tuple = ()

    def path_matches(self, path: str, patterns: Iterable[str]) -> bool:
        return any(fnmatch.fnmatch(path, pat) for pat in patterns)


_PRAGMA = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")
_PRAGMA_ONLY_LINE = re.compile(r"^\s*#")


class Suppressions:
    """Per-line suppression pragmas parsed from one file's source.

    ``# repro: allow(D001)`` at the end of a line suppresses D001 findings
    reported on that line. A comment-only pragma line suppresses the
    following line instead, for statements too long to annotate inline.
    Several rules may be listed: ``# repro: allow(S001, D002)``.

    Pragmas are found by tokenizing the source, so only real ``#``
    comments count — a pragma *mentioned* inside a docstring or string
    literal is prose, not a suppression (and is never reported stale).
    Each pragma entry records whether it suppressed anything;
    :meth:`unused` reports the stale ones for ``--strict-pragmas``.
    """

    def __init__(self, source_lines: Iterable[str]):
        lines = list(source_lines)
        self._by_line: Dict[int, Set[str]] = {}
        #: (effective line, rule) -> line the pragma comment sits on.
        self._declared: Dict[Tuple[int, str], int] = {}
        self._used: Set[Tuple[int, str]] = set()
        for comment_line, text in self._comments(lines):
            match = _PRAGMA.search(text)
            if match is None:
                continue
            rules = {
                part.strip()
                for part in match.group(1).replace(",", " ").split()
                if part.strip()
            }
            if not rules:
                continue
            target = comment_line
            if _PRAGMA_ONLY_LINE.match(lines[comment_line - 1]):
                target = comment_line + 1
            self._by_line.setdefault(target, set()).update(rules)
            for rule in rules:
                self._declared.setdefault((target, rule), comment_line)

    @staticmethod
    def _comments(lines: List[str]) -> Iterator[Tuple[int, str]]:
        """(lineno, text) of every real comment token in the source."""
        source = "".join(
            line if line.endswith("\n") else line + "\n" for line in lines
        )
        try:
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type == tokenize.COMMENT:
                    yield tok.start[0], tok.string
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # Unterminated constructs etc.: fall back to the lexical scan
            # (over-matching beats dropping real suppressions).
            for number, text in enumerate(lines, start=1):
                if "#" in text:
                    yield number, text

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule in self._by_line.get(finding.line, ()):
            self._used.add((finding.line, finding.rule))
            return True
        return False

    def filter(self, findings: Iterable[Finding]) -> list:
        return [f for f in findings if not self.is_suppressed(f)]

    def unused(self, judged_rules: Iterable[str]) -> List[Tuple[int, str]]:
        """(pragma line, rule id) for every stale pragma entry.

        An entry is stale when it suppressed no finding during the run.
        Only rules in ``judged_rules`` (the ids that actually ran) are
        judged — except ids that are not registered rules at all, which
        can never suppress anything and are always reported.
        """
        judged = set(judged_rules)
        known = set(_REGISTRY)
        stale = []
        for (line, rule), comment_line in self._declared.items():
            if (line, rule) in self._used:
                continue
            if rule in judged or rule not in known:
                stale.append((comment_line, rule))
        return sorted(stale)


@dataclass
class FileContext:
    """Everything a rule needs to inspect one file."""

    path: str                 # POSIX-style path, as given to the analyzer
    module: str               # dotted module name ("repro.core.server")
    tree: ast.Module
    lines: list
    index: "ProjectIndex"
    config: Config = field(default_factory=Config)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """Base class for one invariant check.

    Subclasses set ``id`` (e.g. ``"D001"``), a one-line ``title``, a
    ``rationale`` tying the check to the design, and implement
    :meth:`check` yielding findings for one file.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def make(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return ctx.finding(self.id, node, message)


_REGISTRY: dict[str, type] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if not rule_cls.id:
        raise BadRequestError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise BadRequestError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules(select: Optional[Iterable[str]] = None) -> list:
    """Instances of every registered rule, sorted by id.

    ``select`` limits the run to the given ids; an unknown id raises
    :class:`~repro.errors.BadRequestError` (a typo in ``--select`` should
    fail loudly, not silently check nothing).
    """
    chosen = set(select or ())
    unknown = chosen - set(_REGISTRY)
    if unknown:
        raise BadRequestError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [
        cls()
        for rule_id, cls in sorted(_REGISTRY.items())
        if not chosen or rule_id in chosen
    ]


def rule_ids() -> list:
    return sorted(_REGISTRY)


@register
class StalePragmaRule(Rule):
    """P001 — stale suppression pragma (``--strict-pragmas``).

    The engine emits these itself after running the real rules (a pragma
    is stale only relative to a whole run), so :meth:`check` yields
    nothing; the class exists to give the findings a catalogue entry,
    a ``--select`` handle, and a suppression id of their own.
    """

    id = "P001"
    title = "suppression pragma no longer suppresses anything"
    rationale = (
        "A stale `# repro: allow(...)` is a latent hole: the code it "
        "excused has moved or been fixed, and the pragma now silently "
        "licenses the next regression on that line. Turning "
        "processes into `yield from` helpers left several behind; "
        "--strict-pragmas keeps the set honest."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())
