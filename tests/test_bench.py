"""Tests for the benchmark harness: workload distributions, the trace
replayer, table rendering, a scaled-down smoke run of the figure
experiments, and the repository guards: no unflipped option anywhere
under ``src/repro``, no module kept alive by tests alone."""

import ast
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import (
    FileSizeDistribution,
    MeasurementTable,
    TraceGenerator,
    bullet_figure2,
    closed_loop,
    comparison_lines,
    make_rig,
    nfs_figure3,
    replay_bullet,
    replay_nfs,
)
from repro.sim import SeededStream, run_process
from repro.units import KB, MB

from conftest import small_testbed


# -------------------------------------------------------------- workload


def test_size_distribution_matches_cited_statistics():
    """[1]: median ~1 KB, 99% under 64 KB."""
    dist = FileSizeDistribution()
    stream = SeededStream(5, "sizes")
    samples = sorted(dist.sample(stream) for _ in range(20000))
    median = samples[len(samples) // 2]
    p99 = samples[int(len(samples) * 0.99)]
    assert 0.6 * KB < median < 1.6 * KB
    assert p99 <= 80 * KB  # clamped tail keeps this near 64 KB
    assert all(1 <= s <= 1 * MB for s in samples)


def test_size_distribution_deterministic():
    dist = FileSizeDistribution()
    a = [dist.sample(SeededStream(7, "s")) for _ in range(10)]
    b = [dist.sample(SeededStream(7, "s")) for _ in range(10)]
    assert a == b


def test_trace_generator_validity():
    """Reads/deletes only touch live files; sizes are attached to
    creates; the trace replays deterministically."""
    gen = TraceGenerator(seed=3)
    trace = gen.generate(n_ops=500, prepopulate=10)
    live = set()
    for op in trace:
        if op.kind == "create":
            assert op.file_id not in live
            assert op.size >= 1
            live.add(op.file_id)
        elif op.kind == "read":
            assert op.file_id in live
        else:
            assert op.file_id in live
            live.remove(op.file_id)
    trace2 = TraceGenerator(seed=3).generate(n_ops=500, prepopulate=10)
    assert trace == trace2


def test_trace_generator_mix_fractions():
    gen = TraceGenerator(seed=9, read_fraction=0.8, delete_fraction=0.05)
    trace = gen.generate(n_ops=2000, prepopulate=50)
    reads = sum(1 for op in trace if op.kind == "read")
    assert 0.7 < reads / 2000 < 0.9


def test_trace_generator_rejects_bad_fractions():
    with pytest.raises(ValueError):
        TraceGenerator(seed=1, read_fraction=0.8, delete_fraction=0.3)
    # The sum is in range here; each fraction must be too.
    with pytest.raises(ValueError):
        TraceGenerator(seed=1, read_fraction=-0.5, delete_fraction=0.6)


def test_trace_reads_are_popularity_skewed():
    gen = TraceGenerator(seed=11, read_fraction=0.9, delete_fraction=0.0)
    trace = gen.generate(n_ops=3000, prepopulate=100)
    counts = {}
    for op in trace:
        if op.kind == "read":
            counts[op.file_id] = counts.get(op.file_id, 0) + 1
    top = sorted(counts.values(), reverse=True)
    # Popularity is concentrated: the top decile of read files takes a
    # disproportionate share of all reads.
    total = sum(top)
    decile = max(len(top) // 10, 1)
    assert sum(top[:decile]) > 0.25 * total
    assert top[0] > 2 * top[len(top) // 2]


# ---------------------------------------------------------------- tables


def make_table():
    table = MeasurementTable(title="T", columns=["READ", "CREATE"])
    table.record(1024, "READ", 0.002)
    table.record(1024, "CREATE", 0.020)
    table.record(1024 * 1024, "READ", 1.5)
    table.record(1024 * 1024, "CREATE", 2.0)
    return table


def test_table_delay_and_bandwidth():
    table = make_table()
    assert table.delay(1024, "READ") == 0.002
    assert table.bandwidth(1024, "READ") == pytest.approx(500.0)  # 1KB/2ms


def test_table_rejects_unknown_column():
    table = make_table()
    with pytest.raises(ValueError):
        table.record(1, "WRITE", 0.1)


def test_table_rendering_shapes():
    table = make_table()
    delay = table.render_delay()
    assert "Delay (msec)" in delay
    assert "1 Kbytes" in delay and "1 Mbyte" in delay
    assert "2.0" in delay  # 0.002 s -> 2.0 ms
    bandwidth = table.render_bandwidth()
    assert "Bandwidth (Kbytes/sec)" in bandwidth
    assert "500.0" in bandwidth


def test_comparison_lines_claims():
    bullet = MeasurementTable(title="B", columns=["READ", "CREATE+DEL"])
    nfs = MeasurementTable(title="N", columns=["READ", "CREATE"])
    # Synthetic numbers shaped like the paper: 4-5x read speedups, and
    # the NFS 1 MB dip (8 s read for 1 MB is slower per byte than 0.4 s
    # for 64 KB).
    for size, b_read, n_read in ((64 * KB, 0.1, 0.4), (1 * MB, 1.5, 8.0)):
        bullet.record(size, "READ", b_read)
        bullet.record(size, "CREATE+DEL", b_read * 1.4)
        nfs.record(size, "READ", n_read)
        nfs.record(size, "CREATE", n_read * 2.5)
    text = comparison_lines(bullet, nfs)
    assert "C1 read speedup" in text
    assert "4.0x" in text
    assert "HOLDS" in text and "FAILS" not in text


@given(
    seconds=st.floats(min_value=1e-6, max_value=100.0),
    size=st.integers(min_value=1, max_value=1 << 24),
)
@settings(max_examples=50)
def test_table_bandwidth_consistent_property(seconds, size):
    table = MeasurementTable(title="T", columns=["X"])
    table.record(size, "X", seconds)
    assert table.bandwidth(size, "X") == pytest.approx(
        (size / 1024) / seconds)


# ----------------------------------------------------------- harness smoke


def test_small_rig_figures_smoke():
    """The full figure pipeline on the scaled-down testbed: sanity of
    structure, not calibration (the paper-scale run is
    ``repro.bench.paper.figures``)."""
    rig = make_rig(testbed=small_testbed(), background_load=False,
                   nfs_churn=False)
    sizes = [1, 1 * KB, 64 * KB]
    fig2 = bullet_figure2(rig, sizes=sizes, repeats=1)
    fig3 = nfs_figure3(rig, sizes=sizes, repeats=1)
    for size in sizes:
        assert fig2.delay(size, "READ") > 0
        assert fig3.delay(size, "READ") > fig2.delay(size, "READ")
    text = comparison_lines(fig2, fig3)
    assert "C1" in text


def test_throughput_helper_smoke():
    """The closed-loop driver in its windowed form (A5's shape): more
    clients never collapse throughput."""
    def reads_per_sec(n_clients):
        rig = make_rig(testbed=small_testbed(), with_nfs=False,
                       background_load=False)
        env, client = rig.env, rig.bullet_client
        caps = [run_process(env, client.create(bytes(1 * KB), 1))
                for _ in range(n_clients)]
        completed = [0]

        def client_loop(cap):
            while True:
                yield from client.read(cap)
                completed[0] += 1

        window = closed_loop(env, [client_loop(cap) for cap in caps],
                             window=2.0)
        assert window == 2.0 and env.now >= 2.0
        return completed[0] / window

    one, two = reads_per_sec(1), reads_per_sec(2)
    assert one > 0
    assert two >= one * 0.9


def test_replayers_are_deterministic_and_conserve_time():
    """Same seed -> identical per-kind totals; the per-kind totals are
    the whole replay's simulated time (every op is timed, none twice)."""
    def once():
        trace = TraceGenerator(seed=5).generate(n_ops=40, prepopulate=8)
        rig = make_rig(testbed=small_testbed(), background_load=False,
                       nfs_churn=False)
        t0 = rig.env.now
        bullet = replay_bullet(rig, trace, 2)
        t1 = rig.env.now
        nfs = replay_nfs(rig, trace)
        assert sum(bullet.values()) == pytest.approx(t1 - t0)
        assert sum(nfs.values()) == pytest.approx(rig.env.now - t1)
        return trace, bullet, nfs

    trace, bullet, nfs = once()
    assert (trace, bullet, nfs) == once()
    assert set(bullet) == set(nfs) == {"create", "read", "delete"}
    assert all(seconds > 0 for seconds in (*bullet.values(), *nfs.values()))
    # The abstract's direction holds even on the toy testbed.
    assert sum(nfs.values()) > sum(bullet.values())


def test_rig_determinism():
    """Identical seeds must reproduce identical simulated delays."""
    def once():
        rig = make_rig(testbed=small_testbed(), seed=77, with_nfs=False)
        table = bullet_figure2(rig, sizes=[1 * KB], repeats=2)
        return table.delay(1 * KB, "READ"), table.delay(1 * KB, "CREATE+DEL")

    assert once() == once()


# ------------------------------------------------------ options guard

#: Defaulted parameters and dataclass fields kept although no caller
#: outside the tests flips them: (module or package, parameter or field;
#: None = any) -> reason. Every row must still excuse a finding.
_EXEMPT_OPTIONS = {
    ("repro.client", "retry"):
        "retry plane: a stub retries only under a RetryPolicy; the fault "
        "matrix and lossy-network tests exercise it",
    ("repro.client", "retry_stream"):
        "retry plane: the seeded backoff jitter of a retrying stub",
    ("repro.client", "timeout"):
        "retry plane: the per-attempt deadline a retrying stub gives up on",
    ("repro.client.retry", None):
        "retry plane: RetryPolicy's backoff schedule, tuned by the fault "
        "matrix and lossy-network tests",
    ("repro.faults", None):
        "safety plane (see _CLAIMED_MODULES): the fault matrix and crash "
        "tests are its only callers",
    ("repro.profiles", None):
        "the one module of hardware constants: ablations vary a field with "
        "dataclasses.replace, and test_every_profile_field_is_read keeps "
        "each field one the simulation reads",
}


def _base_name(node):
    if isinstance(node, ast.Subscript):  # a generic base: RpcService[E]
        node = node.value
    return getattr(node, "id", getattr(node, "attr", None))


def _calls(trees) -> dict:
    """Name -> the Call nodes in ``trees`` that may reach a callable of
    that name: calls by name or attribute (import aliases resolved), a
    ``super().__init__(...)`` as a call of each base class, a
    ``cls(...)`` inside a class as a call of that class. A call on a
    module bound by ``import m`` is filed as ``m.name`` (``json.dump``
    passes nothing to a method named ``dump``)."""
    calls: dict = {}
    for tree in trees:
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        imported = {(a.asname or a.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = _base_name(func)
                if getattr(getattr(func, "value", None), "id", None) in imported:
                    name = f"{func.value.id}.{name}"
                calls.setdefault(alias.get(name, name), []).append(node)
            if not isinstance(node, ast.ClassDef):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if getattr(func, "id", None) == "cls":
                    calls.setdefault(node.name, []).append(call)
                elif (getattr(func, "attr", None) == "__init__"
                      and isinstance(func.value, ast.Call)
                      and _base_name(func.value.func) == "super"):
                    for base in node.bases:
                        calls.setdefault(_base_name(base), []).append(call)
    return calls


def _is_dataclass(node) -> bool:
    return any(_base_name(getattr(d, "func", d)) == "dataclass"
               for d in node.decorator_list)


def _field_defaults(node):
    """(position, name) of each defaulted ``__init__`` field of a
    dataclass: an annotated name with a value that is not
    ``field(...)`` without ``default``/``default_factory``; a
    ``field(init=False)`` takes no place in the constructor."""
    position = 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        keywords = {}
        if isinstance(value, ast.Call) and _base_name(value.func) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
        if value is not None and (not keywords or {"default", "default_factory"}
                                  & keywords.keys()):
            yield position, stmt.target.id
        position += 1


def _defaults(modules: dict):
    """(module, shown as, names callers use, position, parameter, is a
    dataclass field) for every defaulted parameter of a public function,
    constructor or method of a public class in ``modules`` (dotted name
    -> tree), and every defaulted field of a public dataclass. A
    constructor is also called by the name of every subclass that
    inherits it."""
    classes = {node.name: node for tree in modules.values()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    heirs: dict = {}
    for node in classes.values():
        for base in node.bases:
            heirs.setdefault(_base_name(base), []).append(node)

    def constructor_names(name):
        names = [name]
        for heir in heirs.get(name, []):
            if not any(isinstance(sub, ast.FunctionDef)
                       and sub.name == "__init__" for sub in heir.body):
                names += constructor_names(heir.name)
        return names

    def public(tree):
        """(shown as, names callers use, def) per public callable."""
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield node.name, [node.name], node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if not isinstance(sub, ast.FunctionDef):
                        continue
                    if sub.name == "__init__":
                        yield node.name, constructor_names(node.name), sub
                    elif not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", [sub.name], sub

    for module, tree in sorted(modules.items()):
        for shown, names, func in public(tree):
            args = func.args
            params = args.posonlyargs + args.args
            if params and params[0].arg in ("self", "cls"):
                params = params[1:]
            first = len(params) - len(args.defaults)
            for position, param in enumerate(params[first:], first):
                yield module, shown, names, position, param.arg, False
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield module, shown, names, None, param.arg, False
        for node in tree.body:
            if (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and not node.name.startswith("_")):
                for position, name in _field_defaults(node):
                    yield (module, node.name, constructor_names(node.name),
                           position, name, True)


def _unpassed_defaults(modules: dict, callers) -> list:
    """(module, callable, parameter) for every default of
    :func:`_defaults` that no call in ``callers`` passes, by position or
    keyword — or, for a dataclass field, by keyword to
    ``dataclasses.replace``."""
    calls = _calls(callers)
    findings = []
    for module, shown, names, position, param, is_field in _defaults(modules):
        candidates = [call for name in names for call in calls.get(name, [])]
        replaced = [call for name in ("replace", "dataclasses.replace")
                    for call in calls.get(name, [])] if is_field else []
        if not any((position is not None and len(call.args) > position)
                   or any(k.arg == param for k in call.keywords)
                   for call in candidates) and not any(
                k.arg == param for call in replaced for k in call.keywords):
            findings.append((module, shown, param))
    return findings


def _exemption(finding):
    """The :data:`_EXEMPT_OPTIONS` row that excuses ``finding``, if any."""
    module, _callable, param = finding
    for package, name in _EXEMPT_OPTIONS:
        if ((module == package or module.startswith(package + "."))
                and name in (None, param)):
            return package, name
    return None


def test_no_defaulted_parameter_goes_unpassed():
    """Every defaulted parameter of a public callable under src/repro,
    and every defaulted constructor field of a public dataclass there,
    is passed by some caller under src/, examples/ or perf/ (the
    benchmark's calls are measured traffic) — an option nobody flips is
    a constant, a required parameter, state (``field(init=False)``) or
    gone — or is excused by a row of the exemption table, and every row
    still excuses something."""
    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    modules = {".".join(path.relative_to(src).with_suffix("").parts):
               ast.parse(path.read_text())
               for path in (src / "repro").rglob("*.py")}
    callers = [*modules.values(), *(
        ast.parse(path.read_text())
        for top in ("examples", "perf") for path in (root / top).rglob("*.py")
        if "tests" not in path.relative_to(root).parts)]
    findings = _unpassed_defaults(modules, callers)
    unexcused = [f"{module}: {name}({param}=)"
                 for module, name, param in findings
                 if _exemption((module, name, param)) is None]
    assert not unexcused, "\n".join(unexcused)
    stale = set(_EXEMPT_OPTIONS) - {_exemption(f) for f in findings}
    assert not stale, f"exemption rows excusing nothing: {sorted(stale)}"


def _guard(modules: dict, *callers: str) -> list:
    """The guard's findings over source snippets; as under src/, the
    modules are callers too."""
    trees = {name: ast.parse(textwrap.dedent(source))
             for name, source in modules.items()}
    return _unpassed_defaults(trees, [*trees.values(), *(
        ast.parse(textwrap.dedent(source)) for source in callers)])


def test_options_guard_flags_an_unpassed_default():
    module = """
        def render(table, rows=24):
            pass

        class Server:
            def __init__(self, env, name="s", workers=1):
                pass

            def boot(self, repair=False):
                pass

            def _scan(self, strict=True):
                pass
    """
    assert _guard({"repro.x": module}, "render(t)\nServer(e, workers=4).boot()"
                  ) == [("repro.x", "render", "rows"),
                        ("repro.x", "Server", "name"),
                        ("repro.x", "Server.boot", "repair")]
    assert _guard({"repro.x": module},
                  "render(t, 8)\nServer(e, 'n', 2).boot(repair=True)") == []


def test_options_guard_follows_super_init_and_cls():
    module = """
        class Stub:
            def __init__(self, env, timeout=None, name="stub"):
                pass

        class DirectoryStub(Stub):
            def __init__(self, env):
                super().__init__(env, 0.5, name="directory")

        class Policy:
            def __init__(self, kind, interval=0.0):
                pass

            @classmethod
            def after(cls, interval):
                return cls("after", interval)
    """
    assert _guard({"repro.x": module}, "DirectoryStub(e)\nPolicy.after(1)") == []
    # The same callers without the two forwarding calls flip nothing.
    assert _guard({"repro.x": module.replace("super().__init__", "print")
                   .replace('cls("after", interval)', "None")},
                  "DirectoryStub(e)\nPolicy.after(1)") == [
        ("repro.x", "Stub", "timeout"), ("repro.x", "Stub", "name"),
        ("repro.x", "Policy", "interval")]


def test_options_guard_reaches_a_base_constructor_through_its_subclasses():
    module = """
        class ReproError(Exception):
            def __init__(self, message=""):
                pass

        class NotFoundError(ReproError):
            status = 3

        class Timed(ReproError):
            def __init__(self, after):
                super().__init__()
    """
    assert _guard({"repro.errors": module}, "raise NotFoundError('gone')") == []
    # A subclass with its own constructor does not inherit the callers.
    assert _guard({"repro.errors": module}, "raise Timed(5)") == [
        ("repro.errors", "ReproError", "message")]


def test_options_guard_sees_dataclass_fields():
    module = """
        from dataclasses import dataclass, field

        @dataclass
        class Profile:
            name: str
            rpm: int = 3600
            seek: float = 0.016
            sectors: list = field(default_factory=list)
            state: int = field(default=0, init=False)
            items: list = field(init=False)
            required: int = field(repr=False)
    """
    # ``state`` and ``items`` take no constructor place; ``required``
    # has no default.
    assert _guard({"repro.x": module}, "Profile('d')") == [
        ("repro.x", "Profile", "rpm"), ("repro.x", "Profile", "seek"),
        ("repro.x", "Profile", "sectors")]
    # By position, by keyword, or through dataclasses.replace.
    assert _guard({"repro.x": module}, """
        import dataclasses
        from dataclasses import replace
        p = Profile('d', 7200)
        q = dataclasses.replace(p, seek=0.01)
        r = replace(q, sectors=[])
    """) == []


def test_options_guard_ignores_calls_on_imported_modules():
    module = """
        class Tracer:
            def dump(self, categories=None):
                pass
    """
    assert _guard({"repro.x": module}, """
        import json
        json.dump(payload, fh, indent=2)
        json.dump(payload, categories=None)
    """) == [("repro.x", "Tracer.dump", "categories")]
    assert _guard({"repro.x": module}, "tracer.dump(['disk'])") == []


def test_options_guard_honours_its_exemption_table():
    module = """
        class Controller:
            def __init__(self, env, plan, master_seed=0):
                pass
    """
    findings = _guard({"repro.faults.controller": module,
                       "repro.core.controller": module},
                      "Controller(e, p)")
    assert [_exemption(finding) for finding in findings] == [
        None, ("repro.faults", None)]
    assert _exemption(("repro.client.stub", "Stub", "retry")) == (
        "repro.client", "retry")
    assert _exemption(("repro.client.stub", "Stub", "name")) is None


def test_every_profile_field_is_read():
    """The ``repro.profiles`` row of the exemption table holds while each
    profile field is hardware the simulation uses: read as an attribute
    by some module under src/repro other than ``profiles`` itself, or by
    a property or method of its class that is. Reads are matched by
    attribute name."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    profiles = src / "profiles.py"
    read = {node.attr for path in src.rglob("*.py") if path != profiles
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for cls in ast.parse(profiles.read_text()).body:
        if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
            continue
        methods = {sub.name: {node.attr for node in ast.walk(sub)
                              if isinstance(node, ast.Attribute)}
                   for sub in cls.body if isinstance(sub, ast.FunctionDef)}
        used = set(read)
        while True:
            more = set().union(*(attrs for name, attrs in methods.items()
                                 if name in used)) - used
            if not more:
                break
            used |= more
        unread += [f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                   if isinstance(stmt, ast.AnnAssign)
                   and stmt.target.id not in used]
    assert not unread, unread


#: Modules no committed artifact reaches, each with the claim it stays
#: on (EXPERIMENTS.md E16). A package name covers its modules.
_CLAIMED_MODULES = {
    "repro.__main__": "README: `python -m repro` prints the Fig. 2/3 tables",
    "repro.analysis": "tool with its own CI traffic: test_analysis_*.py",
    "repro.modelcheck": "tool with its own CI job: modelcheck",
    "repro.faults": "safety plane: the fault matrix and crash tests drive it",
    "repro.gc": "DESIGN §5c: orphans are absorbed by object aging",
    "repro.unixemu": "paper §5: a UNIX emulation on top of the Bullet service",
}


def test_no_module_is_kept_alive_by_tests_and_examples_alone():
    """Every module under src/repro is used — imports followed through
    the re-exports of package ``__init__`` files, which are not uses
    themselves — by something that produces a committed artifact:
    perf/ or the bench CLI. The rest is the table above;
    a module only tests/ and examples/ import has nothing measuring it
    and belongs beside its example."""
    root = Path(__file__).resolve().parents[1]
    src = root / "src"

    def dotted(path):
        parts = path.relative_to(src).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    files = {dotted(path): path for path in (src / "repro").rglob("*.py")}
    trees = {path: ast.parse(path.read_text()) for path in files.values()}

    def named_module(path, node):
        """The absolute dotted name an ImportFrom starts from."""
        if not node.level:
            return node.module or ""
        if path not in trees:
            return ""  # perf/ importing its own siblings
        here = dotted(path).split(".")
        if path.name != "__init__.py":
            here = here[:-1]
        here = here[:len(here) - (node.level - 1)]
        return ".".join(here + ([node.module] if node.module else []))

    def provider(module, name):
        """The module ``from module import name`` really loads from."""
        if f"{module}.{name}" in files:
            return f"{module}.{name}"
        init = files.get(module)
        if init is not None and init.name == "__init__.py":
            for node in ast.walk(trees[init]):
                if isinstance(node, ast.ImportFrom):
                    for a in node.names:
                        if (a.asname or a.name) == name:
                            return provider(named_module(init, node), a.name)
        return module

    def claimed(module):
        return any(module == claim or module.startswith(claim + ".")
                   for claim in _CLAIMED_MODULES)

    live = {"repro.obs.__main__"}
    frontier = list((root / "perf").rglob("*.py"))
    frontier += [files[m] for m in files if m in live or claimed(m)]
    while frontier:
        path = frontier.pop()
        if path in trees and path.name == "__init__.py":
            continue  # a re-export is not a use
        tree = trees.get(path) or ast.parse(path.read_text())
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                used.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                used.update(provider(named_module(path, node), a.name)
                            for a in node.names)
        for module in used & files.keys() - live:
            live.add(module)
            frontier.append(files[module])
    unreached = sorted(m for m, path in files.items()
                       if m not in live and path.name != "__init__.py"
                       and not claimed(m))
    assert not unreached, "\n".join(unreached)


def test_kernel_private_state_stays_inside_repro_sim():
    """``add_source`` / ``remove_source`` / ``reguard`` /
    ``finish_inline`` are the whole virtual-source surface (the merge
    order of two or more sources, ``_guard_of`` and ``_head``, is the
    kernel's) and no fast-path legality question is public
    (the held event asks ``_clear`` inside the kernel): no module outside
    ``repro/sim/`` reads the kernel's private switches, its guard or the
    event it holds off the heap, reaches into its heap or writes an
    event's outcome in place, so no layer can re-derive (and get wrong)
    when a collapse is legal, how events and virtual steps are ordered
    or what a waiter is resumed with. The deleted analytic-segment
    calls, ``try_finish_now`` (a fresh event completes in place by the
    held-event rule) and ``can_collapse`` (its one caller was the
    deleted synchronous completion) stay deleted."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    #: The model checker's state key counts pending events.
    allowed = {("modelcheck/rig.py", "_heap")}
    findings = [
        f"{path.relative_to(src)}:{node.lineno}: .{node.attr}"
        for path in sorted(src.rglob("*.py"))
        if path.relative_to(src).parts[0] != "sim"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("fast", "_solo", "_tie_hook", "_stop",
                          "_schedule", "_heap", "_eid", "_guard",
                          "_wake", "_sources", "_step_seq",
                          "_perform_virtual", "_merge", "_perform_quiet",
                          "_guard_of", "_head", "_pop_tied", "_now",
                          "_active", "_proc_count",
                          "_held", "_held_at", "_hold", "_flush",
                          "_clear", "_deadline",
                          "ticket", "schedule_at", "try_finish_now",
                          "can_collapse",
                          "_ok", "_value", "_defused")
        and (path.relative_to(src).as_posix(), node.attr) not in allowed
    ]
    assert not findings, "\n".join(findings)


def test_the_workstation_proves_capabilities_in_one_place():
    """The client plane checks a capability by one rule: no module of
    ``repro/client/`` but ``workstation.py`` calls ``verify``,
    ``local_verifier`` or ``restrict`` from ``repro.capability``, and
    ``workstation.py`` evaluates ``verify``/``local_verifier`` in one
    function. A second copy of the check is how a dead incarnation's
    capability came to be served cached bytes."""
    client = Path(__file__).resolve().parents[1] / "src" / "repro" / "client"
    watched = {"verify", "local_verifier", "restrict"}

    def calls(node, function="<module>"):
        """Every call under ``node`` with its innermost enclosing def."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from calls(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield function, child
            yield from calls(child, function)

    findings, checkers = [], set()
    for path in sorted(client.glob("*.py")):
        tree = ast.parse(path.read_text())
        # Names bound to the watched functions, and to the module itself
        # (``from .. import capability``, ``import repro.capability``).
        aliases, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for a in node.names:
                    if (node.module or "").endswith("capability") \
                            and a.name in watched:
                        aliases[a.asname or a.name] = a.name
                    elif a.name == "capability":
                        modules.add(a.asname or a.name)
            elif isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names
                               if a.name == "repro.capability")
        for function, call in calls(tree):
            func = call.func
            if isinstance(func, ast.Name) and func.id in aliases:
                name = aliases[func.id]
            elif (isinstance(func, ast.Attribute) and func.attr in watched
                  and ast.unparse(func.value) in modules):
                name = func.attr
            else:
                continue
            if path.name != "workstation.py":
                findings.append(f"{path.name}:{call.lineno}: {name}")
            elif name != "restrict":
                checkers.add(function)
    assert not findings, "\n".join(findings)
    assert len(checkers) <= 1, sorted(checkers)


def test_core_writes_replicas_through_the_mirror_only():
    """A replica write issued disk by disk has to remember to tell a
    streaming recovery about it, or the copy clobbers it with a stale
    snapshot (the model checker's repair-race bug). ``repro/core/``
    cannot forget: it never names the replicas or the recovery log, so
    every write it makes is ``mirror.write`` / ``mirror.write_ordered``."""
    core = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
    findings = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(core.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "live_disks" in line or "resync_note" in line
    ]
    assert not findings, "\n".join(findings)


#: The server packages whose handlers write durable state.
_DURABLE_PACKAGES = ("core", "directory", "logsvc", "nfs")

#: What the write guard leaves alone, each row with its reason.
_WRITE_GUARD_EXEMPT = {
    "write_raw": "not watched: the untimed raw plane (format, mkfs) "
                 "writes a volume before any incarnation boots on it",
    "disk/mirror.py": "not read: the mirror fans one write out to its "
                      "replicas; it is what an incarnation writes "
                      "through, not a handler",
    "nfs/ffs.py: self.write": "FFS.write, a file write: its blocks "
                              "reach the disk through the buffer "
                              "cache, which writes through its "
                              "incarnation",
    "nfs/server.py: fs.write": "the WRITE handler calling FFS.write",
    "nfs/server.py: self.write": "the dispatcher calling the WRITE "
                                 "handler",
}


def _writes_around_the_incarnation(sources):
    """``path:line: call`` for every ``.write(...)`` or
    ``.write_ordered(...)`` call in ``sources`` (path relative to
    ``src/repro`` -> text) that is not made on an incarnation."""
    findings = []
    for relative, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write", "write_ordered")):
                continue
            receiver = ast.unparse(node.func.value)
            call = f"{relative}: {receiver}.{node.func.attr}"
            if receiver.split(".")[-1] == "incarnation" \
                    or call in _WRITE_GUARD_EXEMPT:
                continue
            findings.append(f"{relative}:{node.lineno}: "
                            f"{receiver}.{node.func.attr}")
    return findings


def _durable_sources():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    return {path.relative_to(src).as_posix(): path.read_text()
            for package in _DURABLE_PACKAGES
            for path in sorted((src / package).glob("*.py"))}


def test_every_durable_write_goes_through_its_incarnation():
    """A dead incarnation issues no new disk request because it has one
    door: ``ServiceEndpoint.write`` / ``write_ordered``, which refuse
    once it is down. No module of the server packages calls a disk's or
    mirror's ``write`` / ``write_ordered`` itself; the table above says
    what is left alone and why. A write past the door is how a local
    call that outlived its incarnation came to write (bugs A1, A3 and
    the NFS local-plane WRITE)."""
    findings = _writes_around_the_incarnation(_durable_sources())
    assert not findings, "\n".join(findings)


def test_the_write_guard_catches_a_direct_disk_write_in_a_log_append():
    """The guard's mutant: ``LogServer.append`` writing its tail block
    with ``self.disk.write`` again, past the incarnation."""
    sources = _durable_sources()
    source = sources["logsvc/server.py"]
    needle = "yield incarnation.write(self.disk, state.tail_block,\n"
    assert source.count(needle) == 1, "mutation target moved"
    line = source[:source.index(needle)].count("\n") + 1
    sources["logsvc/server.py"] = source.replace(
        needle, "yield self.disk.write(state.tail_block,\n")
    assert _writes_around_the_incarnation(sources) == [
        f"logsvc/server.py:{line}: self.disk.write"]


def _boots_storing_on_self(sources):
    """``path:line: self.name`` for every attribute a ``boot()`` in
    ``sources`` (path relative to ``src/repro`` -> text) assigns on
    ``self``."""
    findings = []
    for relative, source in sorted(sources.items()):
        for boot in ast.walk(ast.parse(source)):
            if not (isinstance(boot, ast.FunctionDef)
                    and boot.name == "boot"):
                continue
            for node in ast.walk(boot):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for leaf in ast.walk(target):
                        if (isinstance(leaf, ast.Attribute)
                                and isinstance(leaf.value, ast.Name)
                                and leaf.value.id == "self"):
                            findings.append(f"{relative}:{leaf.lineno}: "
                                            f"self.{leaf.attr}")
    return findings


def test_no_boot_stores_volatile_state_on_its_server():
    """Everything a crash ends lives on the incarnation ``boot()``
    builds: no ``boot()`` of the server packages assigns an attribute
    on ``self``, where the next boot would overwrite it under a handler
    that outlived its incarnation (the stale READ that wrote a dead
    cache's rnode number into the next incarnation's inode)."""
    findings = _boots_storing_on_self(_durable_sources())
    assert not findings, "\n".join(findings)


def test_the_boot_guard_catches_a_table_stored_on_the_server():
    """The guard's mutant: ``BulletServer.boot`` storing ``self.table``
    again."""
    sources = _durable_sources()
    source = sources["core/server.py"]
    needle = "        incarnation.table = table = InodeTable.decode("
    assert source.count(needle) == 1, "mutation target moved"
    line = source[:source.index(needle)].count("\n") + 1
    sources["core/server.py"] = source.replace(
        needle, "        self.table = table = InodeTable.decode(")
    assert _boots_storing_on_self(sources) == [
        f"core/server.py:{line}: self.table"]
