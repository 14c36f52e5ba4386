"""The traced run: spans and a profile, both taken from outside.

*Span pass.* The program already emits ``rpc.trans``, ``rpc.queue``,
``server.op``, ``server.disk``, ``server.cache`` and ``server.net``
spans through the public ``Tracer`` keyword of its constructors; the
harness adds its own ``client.<op>`` span around every client call,
through the same tracer. The program's spans carry neither a parent nor
a request id, so :class:`SpanLog` supplies both from outside, as a
tracer ``sink``: a span belongs to the op of the simulated process that
emitted it (``Environment.active_process``), and a server worker takes
over an op at the instant it closes that request's ``rpc.queue`` span.
Records of one op arrive properly nested, so the parent of a span is
the top of its op's stack.

*Profile pass.* cProfile ``tottime`` rolled up by the program's modules;
time in builtins and the standard library is charged to the layer that
called it.
"""

from __future__ import annotations

import json
import pstats
import time
from dataclasses import dataclass
from pathlib import Path

from . import api

#: Conservation tolerance, simulated seconds.
_NS = 1e-9


@dataclass
class OpSpan:
    """One completed span, attributed to a client op."""

    span_id: int
    name: str
    op: int                   # span id of the op's client.<op> root
    parent: int               # 0 for a root
    sim_start: float
    sim_end: float
    host_start_ns: int
    host_end_ns: int
    port: int = 0             # rpc.trans: the port it was addressed to
    self_sim_s: float = 0.0

    @property
    def sim_s(self) -> float:
        return self.sim_end - self.sim_start


class SpanLog:
    """Collects spans of a pass in memory and attributes them to ops."""

    def __init__(self):
        self.env = None
        self.tracer = None
        self._op_of_proc: dict = {}
        self._op_of_span: dict = {}
        self._parent: dict = {}
        self._name: dict = {}
        self._stack: dict = {}        # op -> open span ids, innermost last
        self._host_ns: dict = {}      # (span id, phase) -> host clock
        self.nesting_errors: list = []
        self.orphans = 0              # program spans outside any client op

    def attach(self, env, tracer) -> None:
        """Start recording: drop set-up records, hook the tracer's sink."""
        self.env = env
        self.tracer = tracer
        tracer.clear()
        tracer.sink = self._on_record

    # Called by the workload's client processes.

    def begin(self, kind: str, client: int, seq: int) -> int:
        return self.tracer.begin_span("bench", f"client.{kind}",
                                      client=client, seq=seq)

    def end(self, span_id: int, kind: str) -> None:
        self.tracer.end_span(span_id, "bench", f"client.{kind}")

    def _on_record(self, record) -> None:
        fields = dict(record.fields)
        span_id = fields.get("span")
        if span_id is None:
            return
        phase = fields["phase"]
        self._host_ns[(span_id, phase)] = time.perf_counter_ns()
        proc = self.env.active_process
        if phase == "B":
            if record.category == "bench":
                op = span_id
                self._op_of_proc[proc] = op
                self._stack[op] = []
            else:
                op = self._op_of_proc.get(proc, 0)
                if not op:
                    self.orphans += 1
            self._op_of_span[span_id] = op
            self._name[span_id] = record.message
            stack = self._stack.get(op)
            if stack is not None:
                self._parent[span_id] = stack[-1] if stack else 0
                stack.append(span_id)
            return
        op = self._op_of_span.get(span_id, 0)
        if record.message == "rpc.queue":
            # A worker took this request off the queue: from here until
            # it closes the next queue span, its spans belong to this op.
            self._op_of_proc[proc] = op
        stack = self._stack.get(op)
        if stack is not None:
            # The NFS and directory servers dequeue without closing the
            # transport's rpc.queue span; step over such a leftover.
            while (stack and stack[-1] != span_id
                   and self._name[stack[-1]] == "rpc.queue"):
                stack.pop()
            if stack and stack[-1] == span_id:
                stack.pop()
            else:
                self.nesting_errors.append(
                    f"span {span_id} ({record.message}) closed out of order")
            if record.category == "bench":
                del self._stack[op]
                if stack:
                    self.nesting_errors.append(
                        f"op {op} ended with spans {stack} still open")

    # After the pass.

    def spans(self) -> list:
        """Completed spans with parents, ops and self times.

        ``rpc.queue`` spans of servers that never close them (the NFS
        and directory servers dequeue without tracing) stay open and are
        left out; any other unclosed span is a nesting error.
        """
        paired = api.pair_spans(self.tracer.records, allow_open=True)
        closed = {span.span_id for span in paired}
        for span_id, name in self._name.items():
            if span_id not in closed and name != "rpc.queue":
                self.nesting_errors.append(
                    f"span {span_id} ({name}) never closed")
        out = {}
        for span in paired:
            out[span.span_id] = OpSpan(
                span_id=span.span_id, name=span.name,
                op=self._op_of_span.get(span.span_id, 0),
                parent=self._parent.get(span.span_id, 0),
                sim_start=span.begin, sim_end=span.end,
                host_start_ns=self._host_ns[(span.span_id, "B")],
                host_end_ns=self._host_ns[(span.span_id, "E")],
                port=dict(span.begin_fields).get("port", 0),
                self_sim_s=span.end - span.begin)
        for span in out.values():
            # An unclosed rpc.queue is skipped over: its children (none
            # in practice) would hang off a span that is not there.
            parent = out.get(span.parent)
            if parent is not None:
                parent.self_sim_s -= span.sim_s
        return sorted(out.values(), key=lambda s: s.span_id)

    def conservation_failures(self, spans: list) -> list:
        """Per request, the self times of the tree must add back to the
        client.<op> span (±1 ns), no child may stick out of its parent
        and spans must have closed innermost first. (Program spans
        outside every client op — ``orphans`` — are legal: a server
        working for another server, not for a client.)"""
        failures = list(self.nesting_errors)
        by_id = {span.span_id: span for span in spans}
        total_self: dict = {}
        for span in spans:
            if not span.op:
                continue
            total_self[span.op] = (total_self.get(span.op, 0.0)
                                   + span.self_sim_s)
            if span.self_sim_s < -_NS:
                failures.append(f"span {span.span_id} ({span.name}): children "
                                f"exceed it by {-span.self_sim_s:.3e} s")
            parent = by_id.get(span.parent)
            if parent is not None and (span.sim_start < parent.sim_start - _NS
                                       or span.sim_end > parent.sim_end + _NS):
                failures.append(f"span {span.span_id} ({span.name}) sticks "
                                f"out of its parent {parent.name}")
        for op, self_sum in total_self.items():
            if abs(self_sum - by_id[op].sim_s) > _NS:
                failures.append(
                    f"op {op}: self times sum to {self_sum!r}, the op took "
                    f"{by_id[op].sim_s!r}")
        return failures[:20]

    def write(self, path: Path, spans: list) -> None:
        """One JSON object per span, in span-id order."""
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps({
                    "id": span.span_id, "op": span.op, "parent": span.parent,
                    "name": span.name, "sim_start": span.sim_start,
                    "sim_end": span.sim_end,
                    "host_start_ns": span.host_start_ns,
                    "host_end_ns": span.host_end_ns,
                }) + "\n")


# ------------------------------------------------------------ profile pass

#: Program module (path under src/repro, without .py) -> layer. The
#: longest matching prefix wins.
_LAYER_OF_MODULE = (
    ("sim", "sim"),
    ("net/ethernet", "net.ethernet"),
    ("net", "net.rpc"),
    ("disk", "disk"),
    ("core/cache", "core.cache"),
    ("core/locks", "core.locks"),
    ("core/freelist", "core.freelist"),
    ("core", "core.server"),
    ("capability", "capability"),
    ("client/workstation", "client.workstation"),
    ("client/named", "client.named"),
    ("client/directory_client", "directory"),
    ("client", "client.bullet"),
    ("directory", "directory"),
    ("nfs/server", "nfs.server"),
    ("nfs/client", "nfs.client"),
    ("nfs/buffercache", "nfs.buffercache"),
    ("nfs", "nfs.ffs"),
    ("obs", "obs"),
)

PROFILE_LAYERS = sorted({layer for _prefix, layer in _LAYER_OF_MODULE}
                        | {"bench", "other"})


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to; '' for builtins and the
    standard library, whose time is charged to their callers."""
    path = Path(filename)
    try:
        module = path.resolve().relative_to(api.SRC / "repro").with_suffix("")
    except ValueError:
        if Path(__file__).resolve().parent in path.resolve().parents:
            return "bench"
        return ""
    module = module.as_posix()
    best = ("", "other")      # program files no layer claims
    for prefix, layer in _LAYER_OF_MODULE:
        if ((module == prefix or module.startswith(prefix + "/"))
                and len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1]


def host_self_shares(profiler) -> dict:
    """Share of profiled ``tottime`` per layer; the shares sum to 1.

    A function outside the program and the benchmark (a builtin, the
    standard library) has its own time split over its callers in
    proportion to the time it ran under each, recursively, until a layer
    is reached; what no layer called is 'other'.
    """
    stats = pstats.Stats(profiler).stats
    layer_cache: dict = {}

    def layer_of(func) -> str:
        if func[0] not in layer_cache:
            layer_cache[func[0]] = (layer_of_file(func[0])
                                    if func[0] not in ("~", "") else "")
        return layer_cache[func[0]]

    split_cache: dict = {}

    def split(func, seen: frozenset) -> dict:
        """Layer -> share of ``func``'s own time."""
        layer = layer_of(func)
        if layer:
            return {layer: 1.0}
        if func in split_cache:
            return split_cache[func]
        callers = stats[func][4] if func in stats else {}
        weights = {caller: entry[2] for caller, entry in callers.items()
                   if caller not in seen}
        if not any(weights.values()):
            # Too quick for the clock under every caller: split by calls.
            weights = {caller: callers[caller][1] for caller in weights}
        total = sum(weights.values())
        shares: dict = {}
        if not total:
            shares["other"] = 1.0
        else:
            inner = seen | {func}
            for caller, weight in weights.items():
                if not weight:
                    continue
                for layer, share in split(caller, inner).items():
                    shares[layer] = (shares.get(layer, 0.0)
                                     + share * weight / total)
        if not seen:
            split_cache[func] = shares
        return shares

    seconds = {layer: 0.0 for layer in PROFILE_LAYERS}
    for func, entry in stats.items():
        for layer, share in split(func, frozenset()).items():
            seconds[layer] += entry[2] * share
    total = sum(seconds.values())
    return {layer: value / total for layer, value in seconds.items()}
