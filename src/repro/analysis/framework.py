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
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from ..errors import BadRequestError

if TYPE_CHECKING:  # import cycle at runtime only (engine imports both)
    from .index import ProjectIndex

__all__ = [
    "Config",
    "FileContext",
    "Finding",
    "Rule",
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


@dataclass
class FileContext:
    """Everything a rule needs to inspect one file."""

    path: str                 # POSIX-style path, as given to the analyzer
    module: str               # dotted module name ("repro.core.server")
    tree: ast.Module
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
