"""Cross-module project index for the invariant linter.

Several rules need knowledge that no single file contains: S001 must know
which functions are generator processes before it can flag a bare call
that silently never starts one; C001 must know which functions
(transitively) perform a ``require(...)`` rights check; C002 must pair
each ``*OPCODES`` dispatch table with the ``_dispatch`` body that
consumes it. The :class:`ProjectIndex` is one cheap pre-pass over every
analyzed file that records exactly those facts:

* every function/method: its qualified name, parameters (with annotation
  text), whether it is a generator, and the calls it makes;
* project-relative ``from ... import`` bindings, so a bare call can be
  resolved across modules;
* every ``*OPCODES`` table literal and every ``TABLE["KEY"]`` reference;
* per-class ``self.attr`` annotations (used by D003's set-type inference
  and by the typed-attribute call resolution below).

* ``return f(...)`` forwarding, so a helper chain introduced by
  de-processification resolves to the function that actually suspends
  (:meth:`ProjectIndex.process_constructors`).

L004 (:mod:`.rules.concurrency`) adds lock-centric facts:

* the lock tables each function opens a scope on — ``with
  <table>.reading(...)`` / ``with <table>.writing(...)`` — by the
  table's terminal name, which is how guard declarations name the lock;
* ``# repro: guarded_by(<lock>)`` field declarations, parsed from the
  source comment on (or immediately above) the attribute definition;
* typed attribute resolution: ``self.cache.insert(...)`` resolves to
  ``BulletCache.insert`` when the caller's class annotates
  ``self.cache: BulletCache`` (or assigns ``self.cache =
  BulletCache(...)``), and ``server.disk_free.free(...)`` resolves
  through a ``server: BulletServer`` parameter annotation — giving
  L004 a call graph that survives the server's delegation into its
  cache/free-list objects.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

__all__ = [
    "CallRef",
    "FunctionInfo",
    "GuardedField",
    "ModuleInfo",
    "OpcodeRef",
    "ProjectIndex",
    "guard_comment_map",
]

#: ``# repro: guarded_by(locks)`` — the lock table attribute whose grant
#: must be held to mutate the annotated field.
_GUARDED = re.compile(r"#\s*repro:\s*guarded_by\(\s*([A-Za-z_][\w.]*)\s*\)")

#: The :class:`~repro.core.locks.FileLockTable` scope constructors.
_SCOPE_METHODS = ("reading", "writing")


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


@dataclass(frozen=True)
class GuardedField:
    """A ``# repro: guarded_by(<lock>)`` declaration on a class field."""

    cls: str
    attr: str
    lock: str
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
    #: Terminal names of the lock tables the body opens a scope on
    #: (``with self.locks.writing(n)`` records ``locks``).
    acquires: Set[str] = field(default_factory=set)
    #: ``return f(...)`` call targets — forwarding edges.
    returned_calls: List[CallRef] = field(default_factory=list)
    #: Mutations of ``<base>.<attr>`` (or ``<base>.<attr>[k]``):
    #: (base dotted expr, attribute, lineno).
    attr_writes: List[Tuple[str, str, int]] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, Optional[str], str]:
        return (self.module, self.cls, self.name)

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass(frozen=True)
class OpcodeRef:
    table: str
    key: str
    lineno: int
    function: Optional[tuple]  # enclosing FunctionInfo.key, if any


@dataclass
class ModuleInfo:
    module: str
    path: str
    functions: dict = field(default_factory=dict)      # (cls|None, name) -> FunctionInfo
    imports: dict = field(default_factory=dict)        # local name -> (module, name)
    opcode_tables: dict = field(default_factory=dict)  # table name -> {key: lineno}
    table_linenos: dict = field(default_factory=dict)  # table name -> def lineno
    opcode_refs: list = field(default_factory=list)    # OpcodeRef
    class_attr_annotations: dict = field(default_factory=dict)  # cls -> {attr: ann}
    #: cls -> {attr: class name} inferred from ``self.attr = ClassName(...)``.
    class_attr_constructors: Dict[str, Dict[str, str]] = field(default_factory=dict)
    classes: Set[str] = field(default_factory=set)
    #: cls -> {attr: GuardedField}
    guarded_fields: Dict[str, Dict[str, GuardedField]] = field(default_factory=dict)


def guard_comment_map(lines: Iterable[str]) -> Dict[int, str]:
    """Map each source line to the ``guarded_by`` lock it declares.

    A pragma on a code line applies to that line's statement; a pragma on
    a comment-only line applies to the next line, mirroring the allow()
    pragma convention in :mod:`.framework`.
    """
    guards: Dict[int, str] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _GUARDED.search(line)
        if match is None:
            continue
        target = lineno if line[: match.start()].strip() else lineno + 1
        guards[target] = match.group(1)
    return guards


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


def _bare_type(annotation: str) -> Optional[str]:
    """The class name an annotation refers to, if it is a plain one.

    ``BulletCache`` / ``"BulletCache"`` / ``Optional[BulletCache]`` all
    yield ``BulletCache``; containers and unions yield None.
    """
    text = annotation.strip().strip("'\"")
    match = re.fullmatch(r"(?:typing\.)?Optional\[(.+)\]", text)
    if match is not None:
        text = match.group(1).strip().strip("'\"")
    if re.fullmatch(r"[A-Za-z_][\w.]*", text) is None:
        return None
    return text.rsplit(".", 1)[-1]


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

    def __init__(self, info: ModuleInfo, guards: Optional[Dict[int, str]] = None):
        self.info = info
        self.guards = guards or {}
        self._class_stack: List[str] = []
        self._function_stack: List[FunctionInfo] = []

    # ------------------------------------------------------------ scopes

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.info.classes.add(node.name)
        # Class-body annotations (``members: set[int]``) declare instance
        # attributes just as ``self.members: set[int]`` in __init__ does.
        annotations = self.info.class_attr_annotations.setdefault(node.name, {})
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                annotations[stmt.target.id] = ast.unparse(stmt.annotation)
                self._record_guard(stmt.target.id, stmt.lineno)
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

    def _record_guard(self, attr: str, lineno: int) -> None:
        if not self._class_stack:
            return
        lock = self.guards.get(lineno)
        if lock is None:
            return
        cls = self._class_stack[-1]
        self.info.guarded_fields.setdefault(cls, {})[attr] = GuardedField(
            cls=cls, attr=attr, lock=lock, lineno=lineno
        )

    def _record_self_attr(self, target: ast.expr, value: Optional[ast.expr],
                          lineno: int) -> None:
        """Instance-attribute facts from a ``self.attr`` assignment."""
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self._class_stack
        ):
            return
        self._record_guard(target.attr, lineno)
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id[:1].isupper()
        ):
            constructors = self.info.class_attr_constructors.setdefault(
                self._class_stack[-1], {}
            )
            constructors.setdefault(target.attr, value.func.id)

    def _record_write(self, target: ast.expr, lineno: int) -> None:
        if not self._function_stack:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_write(elt, lineno)
            return
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return
        base = dotted_name(node.value)
        if base is not None:
            self._function_stack[-1].attr_writes.append((base, node.attr, lineno))

    def visit_With(self, node: ast.With) -> None:
        if self._function_stack:
            for item in node.items:
                call = item.context_expr
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _SCOPE_METHODS
                ):
                    table = dotted_name(call.func.value)
                    if table is not None:
                        self._function_stack[-1].acquires.add(
                            table.rsplit(".", 1)[-1])
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_opcode_table(node.targets, node.value, node.lineno)
        for target in node.targets:
            self._record_self_attr(target, node.value, node.lineno)
            self._record_write(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_write(target, node.lineno)
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
            self._record_self_attr(target, node.value, node.lineno)
        self._record_write(target, node.lineno)
        if node.value is not None:
            self._record_opcode_table([target], node.value, node.lineno)
        self.generic_visit(node)

    def _record_opcode_table(self, targets: List[ast.expr], value: ast.expr,
                             lineno: int) -> None:
        if self._function_stack or not isinstance(value, ast.Dict):
            return
        for target in targets:
            if not (isinstance(target, ast.Name) and target.id.endswith("OPCODES")):
                continue
            entries = {}
            for key_node in value.keys:
                if isinstance(key_node, ast.Constant) and isinstance(
                    key_node.value, str
                ):
                    entries[key_node.value] = key_node.lineno
            self.info.opcode_tables[target.id] = entries
            self.info.table_linenos[target.id] = lineno

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id.endswith("OPCODES")
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            enclosing = self._function_stack[-1].key if self._function_stack else None
            self.info.opcode_refs.append(
                OpcodeRef(node.value.id, node.slice.value, node.lineno, enclosing)
            )
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
        self._class_locations: Dict[str, Optional[Tuple[str, str]]] = {}
        #: Memo for the derived-set fixpoints (the index is immutable
        #: once built, so each is computed at most once per run).
        self._memo: Dict[object, object] = {}

    @classmethod
    def build(cls, files: Iterable[tuple]) -> "ProjectIndex":
        """``files`` yields (path, module, tree) or (path, module, tree,
        source_lines) tuples; the lines enable guarded_by parsing."""
        index = cls()
        for entry in files:
            path, module, tree = entry[0], entry[1], entry[2]
            lines = entry[3] if len(entry) > 3 else None
            guards = guard_comment_map(lines) if lines is not None else {}
            info = ModuleInfo(module=module, path=path)
            _ModuleVisitor(info, guards).visit(tree)
            index.modules[module] = info
        for module, info in index.modules.items():
            for name in info.classes:
                # A class name resolves globally only while unambiguous.
                if name in index._class_locations:
                    index._class_locations[name] = None
                else:
                    index._class_locations[name] = (module, name)
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
        resolved here (see :meth:`resolve_call_typed`).
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

    def class_location(self, name: str) -> Optional[Tuple[str, str]]:
        """(module, class) for a project class name unique in the tree."""
        return self._class_locations.get(name)

    def attr_class(self, module: str, cls: str, attr: str) -> Optional[Tuple[str, str]]:
        """The declared/inferred class of ``<cls instance>.<attr>``."""
        info = self.modules.get(module)
        if info is None:
            return None
        annotation = info.class_attr_annotations.get(cls, {}).get(attr)
        if annotation is not None:
            bare = _bare_type(annotation)
            if bare is not None:
                located = self.class_location(bare)
                if located is not None:
                    return located
        constructor = info.class_attr_constructors.get(cls, {}).get(attr)
        if constructor is not None:
            return self.class_location(constructor)
        return None

    def resolve_base_class(
        self, caller: FunctionInfo, base: str
    ) -> Optional[Tuple[str, str]]:
        """The class a dotted base expression denotes inside ``caller``.

        ``self`` is the caller's class; a leading annotated parameter
        (``server: BulletServer``) starts a chain; each further segment
        hops through :meth:`attr_class`.
        """
        parts = base.split(".")
        current: Optional[Tuple[str, str]] = None
        if parts[0] == "self":
            if caller.cls is None:
                return None
            current = (caller.module, caller.cls)
        else:
            for param, annotation in caller.params:
                if param == parts[0] and annotation is not None:
                    bare = _bare_type(annotation)
                    if bare is not None:
                        current = self.class_location(bare)
                    break
        for part in parts[1:]:
            if current is None:
                return None
            current = self.attr_class(current[0], current[1], part)
        return current

    def resolve_call_typed(self, caller: FunctionInfo,
                           ref: CallRef) -> Optional[FunctionInfo]:
        """:meth:`resolve_call` extended through typed attribute chains,
        so ``self.cache.insert(...)`` reaches ``BulletCache.insert``."""
        found = self.resolve_call(caller, ref)
        if found is not None:
            return found
        if "." not in ref.dotted:
            return None
        base, method = ref.dotted.rsplit(".", 1)
        located = self.resolve_base_class(caller, base)
        if located is None:
            return None
        return self.function(located[0], located[1], method)

    # ------------------------------------------------------- derived sets

    def all_functions(self) -> Iterable[FunctionInfo]:
        for info in self.modules.values():
            yield from info.functions.values()

    def all_guarded_fields(self) -> Iterable[Tuple[str, GuardedField]]:
        for module, info in self.modules.items():
            for fields in info.guarded_fields.values():
                for guarded in fields.values():
                    yield module, guarded

    def callers(self) -> Dict[tuple, Set[tuple]]:
        """callee key -> caller keys, over typed-resolvable call sites."""
        memo = self._memo.get("callers")
        if memo is not None:
            return memo  # type: ignore[return-value]
        graph: Dict[tuple, Set[tuple]] = {}
        for fn in self.all_functions():
            for ref in fn.calls:
                callee = self.resolve_call_typed(fn, ref)
                if callee is not None and callee.key != fn.key:
                    graph.setdefault(callee.key, set()).add(fn.key)
        self._memo["callers"] = graph
        return graph

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
        memo = self._memo.get("process_constructors")
        if memo is not None:
            return memo  # type: ignore[return-value]
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
                    callee = self.resolve_call_typed(fn, ref)
                    if callee is not None and callee.key in constructors:
                        constructors.add(fn.key)
                        changed = True
                        break
        self._memo["process_constructors"] = constructors
        return constructors
