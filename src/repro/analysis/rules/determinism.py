"""Determinism rules: D001 no-wallclock, D002 no-global-rng, D003
unordered-iteration.

The simulation kernel's contract (:mod:`repro.sim.core`) is that "a given
program always replays identically. No wall-clock time or global RNG is
consulted anywhere." These rules make that contract structural: any code
path that reads the host clock, draws from process-global randomness, or
iterates a hash-ordered container in the replay core would break
bit-identical replay, so it is a finding unless explicitly allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..framework import FileContext, Finding, Rule, register
from ..index import dotted_name

__all__ = ["NoWallclock", "NoGlobalRng", "UnorderedIteration"]


#: Host-clock reads. Simulated components must use ``env.now``.
_WALLCLOCK_DOTTED = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime", "time.gmtime", "time.ctime", "time.strftime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_WALLCLOCK_IMPORTS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "process_time_ns",
             "localtime", "gmtime", "ctime", "strftime"},
}

#: Global randomness sources. All randomness must flow through
#: :class:`repro.sim.rng.SeededStream`.
_RNG_MODULES = frozenset({"random", "secrets"})
_RNG_DOTTED = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})
_RNG_IMPORTS = {
    "os": {"urandom"},
    "uuid": {"uuid1", "uuid4"},
}

#: Builtins whose result does not depend on argument order, so feeding
#: them a set directly is deterministic.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
})


@register
class NoWallclock(Rule):
    id = "D001"
    title = "no-wallclock"
    rationale = (
        "The sim kernel promises replay determinism; reading the host "
        "clock (time.time, datetime.now, ...) makes behaviour depend on "
        "the machine running the experiment. Use env.now."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted in _WALLCLOCK_DOTTED:
                    yield self.make(
                        ctx, node,
                        f"wall-clock read `{dotted}`: simulated components "
                        f"must use env.now",
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                banned = _WALLCLOCK_IMPORTS.get(node.module or "", ())
                for alias in node.names:
                    if alias.name in banned:
                        yield self.make(
                            ctx, node,
                            f"wall-clock import `from {node.module} import "
                            f"{alias.name}`: simulated components must use env.now",
                        )


@register
class NoGlobalRng(Rule):
    id = "D002"
    title = "no-global-rng"
    rationale = (
        "Global RNG (random.*, os.urandom, uuid.uuid4) is seeded per "
        "process, so replays diverge and components perturb each other's "
        "streams. Draw from repro.sim.rng.SeededStream instead."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.config.path_matches(ctx.path, ctx.config.rng_allow):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is None:
                    continue
                root = dotted.split(".", 1)[0]
                if dotted in _RNG_DOTTED or root in _RNG_MODULES:
                    yield self.make(
                        ctx, node,
                        f"global randomness `{dotted}`: draw from a "
                        f"repro.sim.rng.SeededStream",
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                banned = _RNG_IMPORTS.get(module)
                for alias in node.names:
                    if module in _RNG_MODULES or (
                        banned is not None and alias.name in banned
                    ):
                        yield self.make(
                            ctx, node,
                            f"global randomness import `from {module} import "
                            f"{alias.name}`: draw from a repro.sim.rng.SeededStream",
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _RNG_MODULES:
                        yield self.make(
                            ctx, node,
                            f"import of global RNG module `{alias.name}`: "
                            f"draw from a repro.sim.rng.SeededStream",
                        )


def _annotation_is_set(annotation: Optional[str]) -> tuple:
    """(is_set, element annotation or None) for an annotation string."""
    if not annotation:
        return False, None
    text = annotation.strip().strip("'\"")
    for prefix in ("set", "frozenset", "Set", "FrozenSet",
                   "typing.Set", "typing.FrozenSet"):
        if text == prefix:
            return True, None
        if text.startswith(prefix + "["):
            inner = text[len(prefix) + 1: -1].strip()
            return True, inner or None
    return False, None


class _SetTypes:
    """Poor-man's type environment: which names/attributes hold sets.

    Sources, in order: parameter annotations, function-local
    ``x: set[...]`` annotations and ``x = set()`` / ``x = {literal}`` /
    ``x = set comprehension`` assignments, and ``self.attr: set[...]``
    annotations collected by the project index.
    """

    def __init__(self, ctx: FileContext, function: Optional[ast.AST],
                 cls_name: Optional[str]):
        self.locals: dict = {}
        if function is not None:
            args = function.args
            for arg in (list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)):
                if arg.annotation is not None:
                    self.locals[arg.arg] = ast.unparse(arg.annotation)
            for stmt in ast.walk(function):
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    self.locals[stmt.target.id] = ast.unparse(stmt.annotation)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and _is_set_expr(
                            stmt.value
                        ):
                            self.locals.setdefault(target.id, "set")
        self.attrs: dict = {}
        module_info = ctx.index.modules.get(ctx.module)
        if module_info is not None and cls_name is not None:
            self.attrs = module_info.class_attr_annotations.get(cls_name, {})

    def annotation_for(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.locals.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return self.attrs.get(node.attr)
        return None


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically-evident set expressions."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class UnorderedIteration(Rule):
    id = "D003"
    title = "unordered-iteration"
    rationale = (
        "Set iteration order is a function of element hashes and "
        "insertion history, not program meaning: renumbering an inode or "
        "reordering two inserts silently reorders an iteration in the "
        "replay core (sim/core/net) and with it every downstream event. "
        "Iterate sorted(...) instead. Dicts are exempt (Python preserves "
        "insertion order), as are sets annotated set[str] (every str-set "
        "in this tree is sorted at its API boundary)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.config.path_matches(ctx.path, ctx.config.ordered_scope):
            return
        parents: dict = {}
        for parent in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        enclosing: dict = {}  # node -> (function node | None, class name | None)
        self._map_scopes(ctx.tree, None, None, enclosing)

        for node in ast.walk(ctx.tree):
            iters: list = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if self._order_insensitive_use(node, parents):
                    continue
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
            ):
                iters.append(node.args[0])
            else:
                continue
            fn_node, cls_name = enclosing.get(node, (None, None))
            env = _SetTypes(ctx, fn_node, cls_name)
            for iterable in iters:
                hazard, detail = self._set_hazard(iterable, env)
                if hazard:
                    yield self.make(
                        ctx, iterable,
                        f"order-dependent iteration over a set ({detail}); "
                        f"iterate sorted(...) for deterministic replay",
                    )

    @staticmethod
    def _order_insensitive_use(node: ast.AST, parents: dict) -> bool:
        parent = parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE
            and len(parent.args) == 1
            and parent.args[0] is node
        )

    def _map_scopes(self, node: ast.AST, fn: Optional[ast.AST],
                    cls: Optional[str], out: dict) -> None:
        for child in ast.iter_child_nodes(node):
            child_fn, child_cls = fn, cls
            if isinstance(node, ast.ClassDef):
                child_cls = node.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_fn = node
            out[child] = (child_fn, child_cls)
            self._map_scopes(child, child_fn, child_cls, out)

    @staticmethod
    def _set_hazard(iterable: ast.expr, env: _SetTypes) -> tuple:
        if _is_set_expr(iterable):
            return True, "set expression"
        annotation = env.annotation_for(iterable)
        if annotation is not None:
            is_set, element = _annotation_is_set(annotation)
            if is_set and element != "str":
                return True, f"annotated `{annotation}`"
        return False, None
