"""repro.analysis — an AST-based invariant linter for this repository.

The reproduction's core guarantees are conventions the code cannot state:
the sim kernel's replay determinism ("no wall-clock time or global RNG is
consulted anywhere", :mod:`repro.sim.core`), the capability gate every
RPC opcode handler must pass (paper §2.2) and the rule that every timed
subroutine must be *driven* (``yield env.process(...)`` / ``yield from``)
or it silently never runs. This package turns each
convention into a machine-checked rule over the project's own AST, with
cross-module knowledge (which functions are generator processes, which
methods are opcode handlers and which of them reach a rights check)
supplied by a project-index pre-pass. Each rule is kept because a bug
planted in the real source is caught by it and by nothing else
(DESIGN.md §11); what the running system can check for itself — leaked
grants, unlocked writes to guarded state, opcode tables that drift from
their dispatchers — is left to the lock scopes, the lockset checker in
:mod:`repro.core.lockset` (armed via ``REPRO_LOCKSET=1``) and tier-1.

Shipped rules — see ``python -m repro.analysis --list-rules``:

=====  ======================  =================================================
D001   no-wallclock            host-clock reads (time.time, datetime.now, ...)
D002   no-global-rng           random.*, os.urandom, uuid.uuid4 outside
                               repro.sim.rng
D003   unordered-iteration     order-dependent set iteration in sim/core/net
S001   unyielded-process       generator process / env.process(...) as a bare
                               statement
C001   missing-rights-check    opcode handler never reaches require(...)
A001   assert-as-validation    assert / AssertionError in library code
=====  ======================  =================================================

There is no suppression: a finding is a bug in the code or in the rule.

Programmatic use::

    from repro.analysis import Config, analyze_paths
    result = analyze_paths(["src/repro"])
    assert result.clean, [f.render() for f in result.findings]
"""

from . import rules  # noqa: F401  (imports register the shipped rules)
from .engine import AnalysisResult, ParseError, analyze_paths, collect_files
from .framework import (
    Config,
    FileContext,
    Finding,
    Rule,
    all_rules,
    register,
    rule_ids,
)
from .index import ProjectIndex
from .reporter import render_json, render_rule_list, render_text

__all__ = [
    "AnalysisResult",
    "Config",
    "FileContext",
    "Finding",
    "ParseError",
    "ProjectIndex",
    "Rule",
    "all_rules",
    "analyze_paths",
    "collect_files",
    "register",
    "render_json",
    "render_rule_list",
    "render_text",
    "rule_ids",
]
