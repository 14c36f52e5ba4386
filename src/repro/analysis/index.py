"""Cross-module project index for the invariant linter.

Several rules need knowledge that no single file contains: S001 must know
which functions are generator processes before it can flag a bare call
that silently never starts one; C001 must know which functions
(transitively) perform a ``require(...)`` rights check. The
:class:`ProjectIndex` is one cheap pre-pass over every analyzed file
that records exactly those facts:

* every function/method: its qualified name, parameters (with annotation
  text), whether it is a generator, and the calls it makes;
* project-relative ``from ... import`` bindings, so a bare call can be
  resolved across modules;
* per-class ``self.attr`` annotations (used by D003's set-type
  inference);
* ``return f(...)`` forwarding, so a helper chain introduced by
  de-processification resolves to the function that actually suspends
  (:meth:`ProjectIndex.process_constructors`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

__all__ = [
    "CallRef",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
]


@dataclass(frozen=True)
class CallRef:
    """One call site inside a function body.

    ``kind`` is ``"self"`` for ``self.name(...)``, ``"bare"`` for
    ``name(...)``, and ``"attr"`` for any dotted call (``a.b.name(...)``);
    ``name`` is always the terminal segment, ``dotted`` the full chain.
    """

    kind: str
    name: str
    dotted: str
    lineno: int


@dataclass
class FunctionInfo:
    module: str
    cls: Optional[str]
    name: str
    lineno: int
    is_generator: bool
    params: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    calls: List[CallRef] = field(default_factory=list)
    #: ``return f(...)`` call targets — forwarding edges.
    returned_calls: List[CallRef] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, Optional[str], str]:
        return (self.module, self.cls, self.name)

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass
class ModuleInfo:
    module: str
    path: str
    functions: dict = field(default_factory=dict)      # (cls|None, name) -> FunctionInfo
    imports: dict = field(default_factory=dict)        # local name -> (module, name)
    class_attr_annotations: dict = field(default_factory=dict)  # cls -> {attr: ann}


def _is_generator_body(body: Iterable[ast.stmt]) -> bool:
    """True when the statements contain a yield at their own scope."""

    class _Finder(ast.NodeVisitor):
        found = False

        def visit_Yield(self, node: ast.Yield) -> None:
            self.found = True

        def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
            self.found = True

        # Yields inside nested definitions belong to those definitions.
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            pass

        def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
            pass

        def visit_Lambda(self, node: ast.Lambda) -> None:
            pass

    finder = _Finder()
    for stmt in body:
        finder.visit(stmt)
        if finder.found:
            return True
    return False


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_ref(node: ast.Call) -> Optional[CallRef]:
    func = node.func
    if isinstance(func, ast.Name):
        return CallRef("bare", func.id, func.id, node.lineno)
    if isinstance(func, ast.Attribute):
        dotted = dotted_name(func)
        if dotted is None:
            # Call on a computed expression (e.g. ``fns[i]()``): keep the
            # terminal attribute so name-seeded checks still see it.
            return CallRef("attr", func.attr, func.attr, node.lineno)
        if dotted.startswith("self.") and dotted.count(".") == 1:
            return CallRef("self", func.attr, dotted, node.lineno)
        return CallRef("attr", func.attr, dotted, node.lineno)
    return None


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Absolute module name for a ``from ...target import`` statement."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    base = parts[: len(parts) - level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class _ModuleVisitor(ast.NodeVisitor):
    """One pass collecting everything :class:`ModuleInfo` holds."""

    def __init__(self, info: ModuleInfo):
        self.info = info
        self._class_stack: List[str] = []
        self._function_stack: List[FunctionInfo] = []

    # ------------------------------------------------------------ scopes

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        # Class-body annotations (``members: set[int]``) declare instance
        # attributes just as ``self.members: set[int]`` in __init__ does.
        annotations = self.info.class_attr_annotations.setdefault(node.name, {})
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                annotations[stmt.target.id] = ast.unparse(stmt.annotation)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(
            self,
            node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        nested = bool(self._function_stack)
        fn = FunctionInfo(
            module=self.info.module,
            cls=None if nested else cls,
            name=node.name,
            lineno=node.lineno,
            is_generator=_is_generator_body(node.body),
            params=[
                (arg.arg, ast.unparse(arg.annotation) if arg.annotation else None)
                for arg in list(node.args.posonlyargs)
                + list(node.args.args)
                + list(node.args.kwonlyargs)
            ],
        )
        # Nested helpers (closures) are indexed by bare name too, so S001
        # can still recognize a local generator; collisions keep the
        # outermost definition.
        self.info.functions.setdefault((fn.cls, fn.name), fn)
        self._function_stack.append(fn)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # ------------------------------------------------------------ facts

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        source = _resolve_relative(self.info.module, node.level, node.module)
        for alias in node.names:
            if alias.name == "*":
                continue
            self.info.imports[alias.asname or alias.name] = (source, alias.name)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class_stack
        ):
            annotations = self.info.class_attr_annotations.setdefault(
                self._class_stack[-1], {}
            )
            annotations[target.attr] = ast.unparse(node.annotation)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._function_stack:
            ref = call_ref(node)
            if ref is not None:
                self._function_stack[-1].calls.append(ref)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if self._function_stack and isinstance(node.value, ast.Call):
            ref = call_ref(node.value)
            if ref is not None:
                self._function_stack[-1].returned_calls.append(ref)
        self.generic_visit(node)


class ProjectIndex:
    """The cross-module facts shared by every rule."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Memo: the index is immutable once built, so the fixpoint is
        #: computed at most once per run.
        self._process_constructors: Optional[Set[tuple]] = None

    @classmethod
    def build(cls, files: Iterable[tuple]) -> "ProjectIndex":
        """``files`` yields (path, module, tree) tuples."""
        index = cls()
        for path, module, tree in files:
            info = ModuleInfo(module=module, path=path)
            _ModuleVisitor(info).visit(tree)
            index.modules[module] = info
        return index

    # -------------------------------------------------------- resolution

    def function(self, module: str, cls: Optional[str],
                 name: str) -> Optional[FunctionInfo]:
        info = self.modules.get(module)
        if info is None:
            return None
        return info.functions.get((cls, name))

    def resolve_call(self, caller: FunctionInfo,
                     ref: CallRef) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a call refers to, if it is indexable.

        ``self.x(...)`` resolves within the caller's class; a bare name
        resolves to a module-level function, a sibling nested helper, or
        a project-relative import. Dotted calls on other objects are not
        resolved.
        """
        if ref.kind == "self":
            return self.function(caller.module, caller.cls, ref.name)
        if ref.kind == "bare":
            found = self.function(caller.module, None, ref.name) or self.function(
                caller.module, caller.cls, ref.name
            )
            if found is not None:
                return found
            info = self.modules.get(caller.module)
            if info is not None and ref.name in info.imports:
                source, original = info.imports[ref.name]
                return self.function(source, None, original)
        return None

    # ------------------------------------------------------- derived sets

    def all_functions(self) -> Iterable[FunctionInfo]:
        for info in self.modules.values():
            yield from info.functions.values()

    def rights_checkers(self, extra_validators: Iterable[str] = ()) -> set:
        """Fixpoint of functions that perform a rights check.

        Seeded by any call whose terminal name is ``require`` (the
        capability gate from :mod:`repro.capability`) or one of
        ``extra_validators``; closed over project-resolvable calls, so
        ``lookup -> lookup_set -> _open -> require`` marks all three.
        Returns the set of :attr:`FunctionInfo.key` tuples.
        """
        validators = {"require", *extra_validators}
        checkers: set = set()
        changed = True
        while changed:
            changed = False
            for info in self.modules.values():
                for fn in info.functions.values():
                    if fn.key in checkers:
                        continue
                    for ref in fn.calls:
                        if ref.name in validators:
                            checkers.add(fn.key)
                            changed = True
                            break
                        callee = self.resolve_call(fn, ref)
                        if callee is not None and callee.key in checkers:
                            checkers.add(fn.key)
                            changed = True
                            break
        return checkers

    def process_constructors(self) -> Set[tuple]:
        """Fixpoint of functions whose call produces a process generator.

        Seeded by generator functions; closed over ``return f(...)``
        forwarding, so a plain wrapper that returns a generator-returning
        call is itself something ``env.process`` must consume. S001 uses
        this instead of ``is_generator`` so delegation chains are
        judged by what they ultimately construct.
        """
        if self._process_constructors is not None:
            return self._process_constructors
        constructors: Set[tuple] = {
            fn.key for fn in self.all_functions() if fn.is_generator
        }
        changed = True
        while changed:
            changed = False
            for fn in self.all_functions():
                if fn.key in constructors or fn.is_generator:
                    continue
                for ref in fn.returned_calls:
                    callee = self.resolve_call(fn, ref)
                    if callee is not None and callee.key in constructors:
                        constructors.add(fn.key)
                        changed = True
                        break
        self._process_constructors = constructors
        return constructors
