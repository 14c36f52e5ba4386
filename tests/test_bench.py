"""Tests for the benchmark harness: workload distributions, the trace
replayer, table rendering, a scaled-down smoke run of the figure
experiments, and the no-unflipped-options guard over ``repro.bench``."""

import ast
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


def _public_callables(tree):
    """(name callers use, def) for each public function, constructor
    and public method defined at a module's top level."""
    public = [node for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    for node in public:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
            continue
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef):
                if sub.name == "__init__":
                    yield node.name, sub
                elif not sub.name.startswith("_"):
                    yield sub.name, sub


def test_no_defaulted_parameter_goes_unpassed():
    """Every defaulted parameter of a public function or constructor in
    ``repro.bench`` is passed by some caller under src/ or examples/ —
    an option nobody flips is a constant."""
    root = Path(__file__).resolve().parents[1]
    calls: dict = {}
    for top in ("src", "examples"):
        for path in (root / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            alias = {a.asname: a.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for a in node.names if a.asname}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    calls.setdefault(alias.get(name, name), []).append(node)

    findings = []
    for path in (root / "src" / "repro" / "bench").glob("*.py"):
        for owner, func in _public_callables(ast.parse(path.read_text())):
            params = func.args.posonlyargs + func.args.args
            if params and params[0].arg == "self":
                params = params[1:]
            first = len(params) - len(func.args.defaults)
            for position, param in enumerate(params[first:], first):
                if not any(len(call.args) > position
                           or any(k.arg == param.arg for k in call.keywords)
                           for call in calls.get(owner, [])):
                    findings.append(f"{path.name}: {owner}({param.arg}=...)")
    assert not findings, "\n".join(sorted(findings))


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
    """``can_collapse`` / ``try_finish_now`` are the whole fast-path
    legality surface and ``add_source`` / ``reguard`` /
    ``finish_inline`` the whole virtual-source surface: no module
    outside ``repro/sim/`` reads the kernel's private switches or its
    guard, reaches into its heap or writes an event's outcome in place,
    so no layer can re-derive (and get wrong) when a collapse is legal,
    how events and virtual steps are ordered or what a waiter is resumed
    with. The deleted analytic-segment calls stay deleted."""
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
                          "_sources", "_step_seq", "_perform_virtual",
                          "ticket", "schedule_at",
                          "_ok", "_value", "_defused")
        and (path.relative_to(src).as_posix(), node.attr) not in allowed
    ]
    assert not findings, "\n".join(findings)


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
