"""L001 lock-leak: the static share of the concurrency suite.

The worker pool gave the server FIFO-fair per-inode reader/writer locks
(:class:`repro.core.locks.FileLockTable`). Handlers take them through a
``with``-scoped :class:`~repro.core.locks.LockScope`, which releases on
every edge out of the block, and lock-guarded state is a
:class:`~repro.core.lockset.GuardedMap`, which reports every write to
the runtime lockset checker — so the discipline holds by construction
and one thing is left to see statically: a raw
``acquire_read``/``acquire_write`` call outside a ``with`` header
returns a grant nothing is bound to release; an exception or early
return before a hand-written ``release`` wedges the inode's FIFO queue
forever.

Blocking under a write grant, nested-acquire cycles and unlocked writes
are left to the layers that see them run: the kernel's deadlock error,
the lock table's waits-for detector and the lockset checker (DESIGN.md
§11 has the kill matrix).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import FileContext, Finding, Rule, register

__all__ = ["LockLeak"]


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
