"""L0xx lock-discipline rules: the static share of the concurrency suite.

The worker pool gave the server FIFO-fair per-inode reader/writer locks
(:class:`repro.core.locks.FileLockTable`). Handlers take them through a
``with``-scoped :class:`~repro.core.locks.LockScope`, which releases on
every edge out of the block, so most of the discipline holds by
construction and two rules cover what is left to see statically:

* **L001 lock-leak** — a raw ``acquire_read``/``acquire_write`` call
  outside a ``with`` header returns a grant nothing is bound to
  release; an exception or early return before a hand-written
  ``release`` wedges the inode's FIFO queue forever.
* **L004 unlocked-shared-access** — fields declared
  ``# repro: guarded_by(<lock>)`` may only be mutated by functions that
  hold that lock: they open a scope on it themselves, receive a grant
  from their caller, are boot/recovery contexts, or are reachable *only*
  from such functions. Violations are blamed on the root of the
  unlocked path (the entry point with no resolvable caller), where a
  fix or pragma belongs.

Blocking under a write grant and nested-acquire cycles are left to the
layers that see them run: the lock table's waits-for detector and the
kernel's deadlock error (DESIGN.md §11 has the kill matrix).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..framework import Config, FileContext, Finding, Rule, register
from ..index import FunctionInfo, ProjectIndex

__all__ = ["LockLeak", "UnlockedSharedAccess"]


# --------------------------------------------------------------------- L001


@register
class LockLeak(Rule):
    id = "L001"
    title = "lock-leak"
    rationale = (
        "A raw acquire_read/acquire_write call returns a grant that only a "
        "hand-written release() gives back, and every exception edge or "
        "early return before it leaks the grant: each later request on "
        "that file waits behind a release that never comes. Take locks "
        "as `with table.reading(key) as lock:` / `table.writing(key)`, "
        "which release on every path out of the block."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scoped = {
            id(node)
            for stmt in ast.walk(ctx.tree)
            if isinstance(stmt, (ast.With, ast.AsyncWith))
            for item in stmt.items
            for node in ast.walk(item.context_expr)
        }
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire_read", "acquire_write")
                and id(node) not in scoped
            ):
                yield self.make(
                    ctx, node,
                    f"raw `{node.func.attr}` outside a `with` header: "
                    f"nothing releases the grant if the code after it "
                    f"raises or returns early",
                )


# --------------------------------------------------------------------- L004


@register
class UnlockedSharedAccess(Rule):
    id = "L004"
    title = "unlocked-shared-access"
    rationale = (
        "A field declared `# repro: guarded_by(<lock>)` is shared "
        "mutable server state; writing it without holding the lock is "
        "exactly the torn-state race the lock plane exists to prevent. "
        "A writer must open a scope on the lock, receive a grant from "
        "its caller, be a boot/recovery context, or be reachable only "
        "from such functions; the violation is reported at the root of "
        "the unlocked path, where the fix belongs."
    )

    _cached: Optional[Tuple[ProjectIndex, Dict[str, List[Tuple[int, str]]]]] = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        per_module = self._analysis(ctx)
        for line, message in per_module.get(ctx.module, []):
            yield Finding(rule=self.id, path=ctx.path, line=line, col=1,
                          message=message)

    def _analysis(self, ctx: FileContext) -> Dict[str, List[Tuple[int, str]]]:
        cached = self._cached
        if cached is not None and cached[0] is ctx.index:
            return cached[1]
        index = ctx.index
        config = ctx.config

        guarded: Dict[Tuple[str, str, str], str] = {}
        for module, gf in index.all_guarded_fields():
            guarded[(module, gf.cls, gf.attr)] = gf.lock

        # Direct guarded writes per function:
        # fn key -> [(lock, lineno, "Cls.attr"), ...]
        direct: Dict[tuple, List[Tuple[str, int, str]]] = {}
        functions: Dict[tuple, FunctionInfo] = {}
        if guarded:
            for fn in index.all_functions():
                functions[fn.key] = fn
                for base, attr, lineno in fn.attr_writes:
                    located = index.resolve_base_class(fn, base)
                    if located is None:
                        continue
                    lock = guarded.get((located[0], located[1], attr))
                    if lock is not None:
                        direct.setdefault(fn.key, []).append(
                            (lock, lineno, f"{located[1]}.{attr}")
                        )

        per_module: Dict[str, List[Tuple[int, str]]] = {}
        if direct:
            callers = index.callers()
            locks = {lock for sites in direct.values() for lock, _l, _f in sites}
            for lock in sorted(locks):
                self._check_lock(
                    lock, direct, functions, callers, config, index,
                    per_module,
                )
        for entries in per_module.values():
            entries.sort()
        self._cached = (ctx.index, per_module)
        return per_module

    def _check_lock(
        self,
        lock: str,
        direct: Dict[tuple, List[Tuple[str, int, str]]],
        functions: Dict[tuple, FunctionInfo],
        callers: Dict[tuple, Set[tuple]],
        config: Config,
        index: ProjectIndex,
        per_module: Dict[str, List[Tuple[int, str]]],
    ) -> None:
        # A function locally satisfies the guard when it opens a scope
        # on the lock itself, receives a grant parameter, or is an exempt
        # (boot-time) context.
        ok: Set[tuple] = set()
        for key, fn in functions.items():
            if lock in fn.acquires:
                ok.add(key)
            elif any(
                "grant" in name
                or (annotation is not None and "LockGrant" in annotation)
                for name, annotation in fn.params
            ):
                ok.add(key)
            elif config.context_exempt(fn.module, fn.qualname):
                ok.add(key)
        # ...or when every resolvable caller satisfies it (the lock is
        # held around the call).
        changed = True
        while changed:
            changed = False
            for key in functions:
                if key in ok:
                    continue
                above = callers.get(key, set())
                if above and all(parent in ok for parent in above):
                    ok.add(key)
                    changed = True

        # Functions on an unlocked path to a guarded write of this lock,
        # with a representative target for the message.
        writers: Dict[tuple, str] = {}
        for key, sites in direct.items():
            if key in ok:
                continue
            for site_lock, _lineno, field_name in sites:
                if site_lock == lock:
                    writers.setdefault(key, field_name)
        changed = True
        while changed:
            changed = False
            for key, fn in functions.items():
                if key in ok or key in writers:
                    continue
                for ref in fn.calls:
                    callee = index.resolve_call_typed(fn, ref)
                    if callee is not None and callee.key in writers:
                        writers[key] = writers[callee.key]
                        changed = True
                        break

        roots = {
            key for key in writers
            if not callers.get(key)
        } or set(writers)
        for key in roots:
            fn = functions[key]
            entries = per_module.setdefault(fn.module, [])
            for site_lock, lineno, field_name in direct.get(key, ()):
                if site_lock != lock:
                    continue
                entries.append((
                    lineno,
                    f"write to {field_name} (guarded_by {lock}) in "
                    f"{fn.qualname}, which holds no {lock} grant on any "
                    f"path reaching it",
                ))
            for ref in fn.calls:
                callee = index.resolve_call_typed(fn, ref)
                if callee is None or callee.key not in writers:
                    continue
                if callee.key in roots and callee.key in direct:
                    continue  # reported at its own write sites
                entries.append((
                    ref.lineno,
                    f"call into {callee.qualname} reaches a write to "
                    f"{writers[callee.key]} (guarded_by {lock}) on a path "
                    f"that never acquires {lock}",
                ))
