"""S001 unyielded-process: generator processes must be driven.

Every timed subroutine in this codebase is a Python generator resumed by
the simulation kernel. There are exactly two correct ways to run one:

* ``yield env.process(gen())`` / ``yield from gen()`` — composed into the
  caller's timeline; or
* ``env.process(gen())`` assigned/returned so someone awaits the
  :class:`~repro.sim.core.Process` event.

Two silent failure modes remain, and this rule flags both when they
appear as a bare expression statement:

* ``self.sub_operation(...)`` where the target is a generator — the
  generator object is created and dropped; the operation *never runs*;
* ``env.process(...)`` — the process runs, but as an unobserved fork the
  caller does not wait for, so its simulated time never reaches the
  caller (and its failures surface from nowhere). A background daemon
  keeps its handle (or joins its incarnation through
  ``ServiceEndpoint.spawn``), so it is never a bare statement.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..framework import FileContext, Finding, Rule, register
from ..index import FunctionInfo, call_ref, dotted_name

__all__ = ["UnyieldedProcess"]


def _is_env_process(call: ast.Call) -> bool:
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    return dotted == "env.process" or dotted.endswith(".env.process")


def _class_scopes(tree: ast.Module) -> dict:
    """Map every node to the name of its innermost enclosing class."""
    scopes: dict = {}

    def walk(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            child_cls = node.name if isinstance(node, ast.ClassDef) else cls
            scopes[child] = child_cls
            walk(child, child_cls)

    walk(tree, None)
    return scopes


@register
class UnyieldedProcess(Rule):
    id = "S001"
    title = "unyielded-process"
    rationale = (
        "A generator process called as a bare statement never executes; "
        "a bare env.process(...) forks a process nobody awaits, so its "
        "simulated time and failures detach from the caller. Drive "
        "processes with `yield env.process(...)` or `yield from ...`."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scopes = _class_scopes(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Expr) or not isinstance(
                node.value, ast.Call
            ):
                continue
            call = node.value
            if _is_env_process(call):
                yield self.make(
                    ctx, node,
                    "un-awaited env.process(...): the forked process's "
                    "timing and failures detach from the caller; use "
                    "`yield env.process(...)` (or keep a daemon's "
                    "handle)",
                )
                continue
            ref = call_ref(call)
            if ref is None or ref.kind == "attr":
                continue
            caller = FunctionInfo(module=ctx.module, cls=scopes.get(node),
                                  name="<stmt>", lineno=node.lineno,
                                  is_generator=False)
            target = ctx.index.resolve_call(caller, ref)
            if target is None:
                continue
            # Judge by what the call ultimately constructs, not by the
            # callee's own body: a plain wrapper that `return`s a
            # generator-returning call (the de-processified helper
            # chains) drops the process just as surely as calling the
            # generator itself.
            if target.key not in ctx.index.process_constructors():
                continue
            if target.is_generator:
                yield self.make(
                    ctx, node,
                    f"generator process `{ref.dotted}(...)` is created but "
                    f"never runs; drive it with `yield from "
                    f"{ref.dotted}(...)` or `yield env.process(...)`",
                )
            else:
                yield self.make(
                    ctx, node,
                    f"`{ref.dotted}(...)` returns a generator process "
                    f"(through its delegation chain) that is created but "
                    f"never runs; drive it with `yield from "
                    f"{ref.dotted}(...)` or `yield env.process(...)`",
                )
