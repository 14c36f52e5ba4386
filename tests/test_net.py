"""Tests for the Ethernet model and the RPC layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.retry import RpcStub
from repro.core.locks import FileLockTable
from repro.errors import (
    ConsistencyError,
    NotFoundError,
    RpcTimeoutError,
    ServerDownError,
    Status,
)
from repro.net import (Ethernet, RpcReply, RpcRequest, RpcService,
                       RpcTransport, ServiceEndpoint)
from repro.profiles import DEFAULT_TESTBED, CpuProfile, EthernetProfile
from repro.sim import Environment, Interrupt, SeededStream, run_process
from repro.units import KB, MB

from conftest import reference_env


PROFILE = EthernetProfile()
CPU = CpuProfile()


def make_net(env, background=False, seed=7):
    stream = SeededStream(seed, "ethernet") if background else None
    eth = Ethernet(env, PROFILE, stream=stream, background_load=background)
    rpc = RpcTransport(env, eth, CPU)
    return eth, rpc


# ------------------------------------------------------------- ethernet


def test_packets_for_small_message():
    env = Environment()
    eth, _ = make_net(env)
    assert eth.packets_for(0) == 1
    assert eth.packets_for(1) == 1
    assert eth.packets_for(PROFILE.max_payload) == 1
    assert eth.packets_for(PROFILE.max_payload + 1) == 2


def test_packets_for_negative_rejected():
    env = Environment()
    eth, _ = make_net(env)
    with pytest.raises(ValueError):
        eth.packets_for(-1)


def test_send_message_takes_expected_time():
    env = Environment()
    eth, _ = make_net(env)

    def proc():
        yield env.process(eth.send_message(10 * KB))
        return env.now

    elapsed = run_process(env, proc())
    assert elapsed == pytest.approx(eth.message_cost_lower_bound(10 * KB))


def test_bulk_throughput_near_calibration_target():
    """1 MB over the uncontended segment must land near the ~700 KB/s
    the Amoeba papers report (calibration window 600-900 KB/s before
    server-side costs)."""
    env = Environment()
    eth, _ = make_net(env)

    def proc():
        yield env.process(eth.send_message(1 * MB))
        return env.now

    elapsed = run_process(env, proc())
    kb_per_sec = (1 * MB / KB) / elapsed
    assert 600 < kb_per_sec < 900


def test_medium_is_shared():
    """Two simultaneous senders serialize on the wire: the last finisher
    pays both messages' wire occupancy (host overheads may overlap)."""
    env = Environment()
    eth, _ = make_net(env)
    finish = []

    def sender():
        yield env.process(eth.send_message(100 * KB))
        finish.append(env.now)

    env.process(sender())
    env.process(sender())
    env.run()
    packets = eth.packets_for(100 * KB)
    solo = eth.message_cost_lower_bound(100 * KB)
    one_wire = solo - packets * PROFILE.per_packet_overhead
    assert finish[-1] >= 2 * one_wire
    assert finish[-1] > 1.3 * solo


def test_background_load_slows_foreground():
    def timed(background):
        env = Environment()
        eth, _ = make_net(env, background=background)

        def proc():
            yield env.process(eth.send_message(1 * MB))
            return env.now

        return run_process(env, proc())

    assert timed(True) > timed(False)


def test_background_load_is_deterministic():
    def run_once():
        env = Environment()
        eth, _ = make_net(env, background=True, seed=42)

        def proc():
            yield env.process(eth.send_message(256 * KB))
            return env.now

        return run_process(env, proc())

    assert run_once() == run_once()


def test_background_requires_stream():
    env = Environment()
    with pytest.raises(ValueError):
        Ethernet(env, PROFILE, background_load=True)


def test_stats_count_packets():
    env = Environment()
    eth, _ = make_net(env)

    def proc():
        yield env.process(eth.send_message(3 * PROFILE.max_payload))

    run_process(env, proc())
    assert eth.stats.packets.value == 3
    assert eth.stats.payload_bytes.value == 3 * PROFILE.max_payload


@pytest.mark.parametrize("indices", [[0, 0], [5], [-1]])
@pytest.mark.parametrize("kernel", ["fast", "reference"])
def test_a_repeated_or_out_of_range_fragment_index_is_refused(
        kernel, indices):
    # A 100-byte message is one fragment, index 0. Sent twice, the
    # ledger used to send the second copy full-size (1 554 payload bytes
    # where the reference counted 200); an index past the last fragment
    # or below zero went out on both media as a full 1 454-byte fragment.
    # Like a negative size, each is refused before anything joins.
    env = Environment() if kernel == "fast" else reference_env()
    eth, _ = make_net(env)
    with pytest.raises(ValueError, match="fragment indices"):
        run_process(env, eth.send_fragments(100, indices))
    assert (env.now, eth.stats.packets.value, eth.idle) == (0.0, 0, True)


# ------------------------------------------------------------------ rpc


OP_ECHO = 1
OP_FAIL = 2


def echo_server(env, rpc, port):
    """A server echoing request bodies; OP_FAIL raises NotFoundError."""
    endpoint = rpc.register(ServiceEndpoint(env, port, rpc))

    def loop():
        while True:
            req = yield endpoint.getreq()
            if req.opcode == OP_FAIL:
                reply = RpcTransport.reply_for_error(NotFoundError("no such object"))
            else:
                reply = RpcReply(args=req.args, body=req.body)
            yield env.process(endpoint.putrep(req, reply))

    env.process(loop())
    return endpoint


def test_trans_roundtrip():
    env = Environment()
    _, rpc = make_net(env)
    echo_server(env, rpc, port=100)

    def client():
        reply = yield env.process(
            rpc.trans(100, RpcRequest(opcode=OP_ECHO, args=(1, 2), body=b"ping"))
        )
        return reply

    reply = run_process(env, client())
    assert reply.ok
    assert reply.args == (1, 2)
    assert reply.body == b"ping"
    assert env.now > 0  # the exchange took simulated time


def test_null_rpc_latency_near_calibration_target():
    """A null RPC should land near Amoeba's measured ~1.4 ms."""
    env = Environment()
    _, rpc = make_net(env)
    echo_server(env, rpc, port=100)

    def client():
        yield env.process(rpc.trans(100, RpcRequest(opcode=OP_ECHO)))
        return env.now

    elapsed = run_process(env, client())
    assert 0.8e-3 < elapsed < 2.0e-3


def test_error_marshalling():
    env = Environment()
    _, rpc = make_net(env)
    echo_server(env, rpc, port=100)

    def client():
        reply = yield env.process(rpc.trans(100, RpcRequest(opcode=OP_FAIL)))
        return reply

    reply = run_process(env, client())
    assert reply.status == Status.NOT_FOUND
    assert "no such object" in reply.message


def test_call_raises_marshalled_error():
    """The shared client call path re-raises a non-OK status."""
    env = Environment()
    _, rpc = make_net(env)
    echo_server(env, rpc, port=100)
    stub = RpcStub(env, rpc)

    def client():
        try:
            yield from stub.transact(100, RpcRequest(opcode=OP_FAIL))
        except NotFoundError as exc:
            return ("raised", str(exc))
        return "no error"

    assert run_process(env, client()) == ("raised", "no such object")


def test_trans_to_unknown_port_raises_server_down():
    env = Environment()
    _, rpc = make_net(env)

    def client():
        try:
            yield env.process(rpc.trans(999, RpcRequest(opcode=1), timeout=0.5))
        except ServerDownError:
            return env.now

    assert run_process(env, client()) == pytest.approx(0.5)


def test_trans_timeout_on_silent_server():
    env = Environment()
    _, rpc = make_net(env)
    # Registered, but nobody serves the inbox.
    rpc.register(ServiceEndpoint(env, 100, rpc))

    def client():
        try:
            yield env.process(rpc.trans(100, RpcRequest(opcode=1), timeout=0.25))
        except RpcTimeoutError:
            return "timed out"

    assert run_process(env, client()) == "timed out"


def test_crash_fails_pending_requests():
    env = Environment()
    _, rpc = make_net(env)
    endpoint = rpc.register(ServiceEndpoint(env, 100, rpc))

    def crasher():
        yield env.timeout(0.01)
        endpoint.crash()

    def client():
        try:
            yield env.process(rpc.trans(100, RpcRequest(opcode=1)))
        except ServerDownError:
            return "down"

    env.process(crasher())
    assert run_process(env, client()) == "down"


def test_crash_fails_requests_already_in_service():
    """A request the server had dequeued is owed an answer too: its
    client has no timeout and would otherwise wait forever."""
    env = Environment()
    _, rpc = make_net(env)
    endpoint = rpc.register(ServiceEndpoint(env, 100, rpc))

    def server():
        yield endpoint.getreq()
        yield env.timeout(0.01)  # in service when the crash hits
        endpoint.crash()

    def client():
        try:
            yield env.process(rpc.trans(100, RpcRequest(opcode=1)))
        except ServerDownError:
            return env.now

    env.process(server())
    assert run_process(env, client()) > 0.01
    assert not endpoint.in_progress


def test_crashed_port_can_be_reregistered():
    env = Environment()
    _, rpc = make_net(env)
    endpoint = rpc.register(ServiceEndpoint(env, 100, rpc))
    endpoint.crash()
    rpc.register(ServiceEndpoint(env, 100, rpc))  # must not raise


def test_double_register_rejected():
    env = Environment()
    _, rpc = make_net(env)
    rpc.register(ServiceEndpoint(env, 100, rpc))
    with pytest.raises(ValueError):
        rpc.register(ServiceEndpoint(env, 100, rpc))


def test_large_reply_dominates_latency():
    """Reading 64 KB must take much longer than a null RPC and scale
    with the body size."""
    env = Environment()
    _, rpc = make_net(env)
    port = 100
    endpoint = rpc.register(ServiceEndpoint(env, port, rpc))

    def server():
        while True:
            req = yield endpoint.getreq()
            size = req.args[0]
            yield env.process(endpoint.putrep(req, RpcReply(body=bytes(size))))

    env.process(server())

    def timed(size):
        env_local = env  # same env, sequential calls

        def client():
            t0 = env_local.now
            yield env_local.process(
                rpc.trans(port, RpcRequest(opcode=1, args=(size,)))
            )
            return env_local.now - t0

        return run_process(env_local, client())

    t_small = timed(1)
    t_large = timed(64 * KB)
    assert t_large > 10 * t_small


def test_requests_served_in_order():
    env = Environment()
    _, rpc = make_net(env)
    endpoint = rpc.register(ServiceEndpoint(env, 100, rpc))
    served = []

    def server():
        while True:
            req = yield endpoint.getreq()
            served.append(req.args[0])
            yield env.process(endpoint.putrep(req, RpcReply()))

    env.process(server())

    def client(tag, delay):
        yield env.timeout(delay)
        yield env.process(rpc.trans(100, RpcRequest(opcode=1, args=(tag,))))

    for i in range(3):
        env.process(client(i, i * 1e-4))
    env.run()
    assert served == [0, 1, 2]


def test_background_traffic_alone_respects_run_deadline():
    # Regression: with background load as the *only* activity, the heap
    # is empty when the daemon plans its next packet train. The batched
    # fast path must treat the run(until=...) deadline as its collapse
    # horizon — it used to scan an unbounded window and hang — and the
    # counters at the deadline must match the reference kernel exactly.
    def totals(env):
        eth, _ = make_net(env, background=True)
        env.run(until=0.25)
        env.run(until=0.6)  # resuming past a stop must stay seamless
        return (env.now, eth.stats.background_packets.value, eth.stats.wire_time.value)

    assert totals(Environment()) == totals(reference_env())


# ----------------------------------------------------- the medium ledger
#
# A segment built on the fast kernel keeps the medium ledger; built on
# the hooked kernel it runs the per-fragment reference path. The two
# must be indistinguishable to every program.

MAX_SENDERS = 5

#: Dyadic times, like tests/test_kernel_equivalence.py: unrelated
#: timelines tie exactly and ordering falls to the ticket discipline.
#: 0.625 is the wire time of a full fragment on _tie_profile.
_DELAYS = st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.625, 1.0))
_INSTANTS = st.sampled_from(tuple(i * 0.125 for i in range(81)))

_SEND = st.tuples(
    st.just("send"),
    # Up to 6 fragments, or 10 and 16: three to five of those senders
    # rotate through dozens of hand-offs while the daemon cuts in.
    st.one_of(st.integers(0, 20), st.sampled_from((40, 64))),
    st.one_of(st.none(),
              st.lists(st.integers(0, 5), max_size=3, unique=True)))
_SENDER = st.tuples(
    st.booleans(),  # does it outlive an interrupt?
    st.lists(st.one_of(_SEND, _SEND,
                       st.tuples(st.just("wait"), _DELAYS),
                       st.tuples(st.just("join"),
                                 st.integers(0, MAX_SENDERS - 1))),
             min_size=1, max_size=4))
_FAULT = st.one_of(
    st.tuples(st.just("partition"), st.booleans()),
    st.tuples(st.just("loss"), st.sampled_from((0.0, 0.5, 1.0))),
    st.tuples(st.just("latency"), st.sampled_from((0.0, 0.125, 0.25, 0.625))),
)
_SCENARIO = st.fixed_dictionaries({
    # Below the full wire time senders round-robin on the medium (a
    # packet is ready before the heir is through); above it each sender
    # finds the medium idle; at it every hand-off ties with a prep.
    "overhead": st.sampled_from((0.125, 0.25, 0.5, 0.625, 1.0)),
    "background": st.sampled_from((0.0, 0.0, 0.25, 0.5)),
    "steady_loss": st.sampled_from((0.0, 0.0, 0.3)),
    "senders": st.lists(_SENDER, min_size=1, max_size=MAX_SENDERS),
    "interrupts": st.lists(
        st.tuples(_INSTANTS, st.integers(0, MAX_SENDERS - 1)), max_size=4),
    "faults": st.lists(st.tuples(_INSTANTS, _FAULT), max_size=4),
    "observers": st.lists(_INSTANTS, max_size=4),
    "driver": st.sampled_from(("run", "deadlines", "event")),
    "deadlines": st.lists(_INSTANTS, min_size=1, max_size=3),
})

#: Every driver ends here (background traffic never does on its own).
_SCENARIO_END = 24.0


def _tie_profile(overhead=0.25, background=0.0, steady_loss=0.0):
    """0.125 s per byte on the wire, 4-byte fragments under a 1-byte
    header: every hop is a dyadic number of seconds."""
    return EthernetProfile(
        bandwidth_bits=64.0, mtu=5, header_bytes=1, min_frame_bytes=1,
        per_packet_overhead=overhead, background_utilization=background,
        background_packet_bytes=1, loss_probability=steady_loss)


def _snapshot(eth):
    stats = eth.stats
    return (stats.packets.value, stats.payload_bytes.value, stats.wire_time.value,
            stats.background_packets.value, stats.lost_packets.value,
            eth.medium_queue_length, eth.idle)


def _drive_medium(scenario, env):
    """Run ``scenario`` on a segment built on ``env``. Returns
    everything a program can observe: resume instants, lost lists,
    bit-exact counters read mid-flight, by each sender as its message
    completes and at every ``run()`` boundary,
    and the next draw of both random streams."""
    stream = SeededStream(11, "ethernet")
    fault_stream = SeededStream(12, "faults")
    eth = Ethernet(
        env, _tie_profile(scenario["overhead"], scenario["background"],
                          scenario["steady_loss"]),
        stream=stream, background_load=scenario["background"] > 0)
    log = []
    procs = {}

    def sender(wid, survives, instrs):
        for step, instr in enumerate(instrs):
            try:
                if instr[0] == "send":
                    indices = instr[2]
                    if indices is not None:
                        total = eth.packets_for(instr[1])
                        indices = [i for i in indices if i < total]
                    lost = yield from eth.send_fragments(instr[1], indices)
                    log.append((env.now, wid, step, "sent", tuple(lost),
                                _snapshot(eth)))
                elif instr[0] == "join":
                    # Only downwards, so every sender terminates.
                    if instr[1] < wid:
                        yield procs[instr[1]]
                    log.append((env.now, wid, step, "joined"))
                else:
                    yield env.timeout(instr[1])
                    log.append((env.now, wid, step, "waited"))
            except Interrupt as exc:
                log.append((env.now, wid, step, "interrupted", exc.cause))
                if not survives:
                    return
        log.append((env.now, wid, "done"))

    def interrupter(when, target):
        yield env.timeout(when)
        proc = procs.get(target)
        if proc is not None and proc.is_alive:
            proc.interrupt(when)

    def faulter(when, fault):
        yield env.timeout(when)
        kind, value = fault
        if kind == "partition":
            eth.set_fault(partitioned=value)
        elif kind == "loss":
            eth.set_fault(loss=value, loss_stream=fault_stream)
        else:
            eth.set_fault(extra_latency=value)

    def observer(when):
        yield env.timeout(when)
        log.append((env.now, "observed", _snapshot(eth)))

    for wid, (survives, instrs) in enumerate(scenario["senders"]):
        procs[wid] = env.process(sender(wid, survives, instrs))
    for when, target in scenario["interrupts"]:
        env.process(interrupter(when, target))
    for when, fault in scenario["faults"]:
        env.process(faulter(when, fault))
    for when in scenario["observers"]:
        env.process(observer(when))
    try:
        if scenario["driver"] == "deadlines":
            for deadline in sorted(scenario["deadlines"]):
                env.run(until=deadline)
                log.append(("stopped", env.now, _snapshot(eth)))
        elif scenario["driver"] == "event":
            env.run(until=procs[0])
            log.append(("returned", env.now, _snapshot(eth)))
        # (run(until=sender 0) can return later than that.)
        env.run(until=max(_SCENARIO_END, env.now))
    except Interrupt as exc:
        # A permuted tie can interrupt a sender before it has started;
        # the crash must then be the same crash on both media.
        log.append(("crash", env.now, str(exc)))
    log.append(("end", env.now, _snapshot(eth), stream.random(),
                fault_stream.random()))
    return log


def _assert_no_drift(scenario):
    assert _drive_medium(scenario, Environment()) == _drive_medium(
        scenario, reference_env())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_SCENARIO)
def test_ledger_and_per_fragment_medium_do_not_drift(scenario):
    _assert_no_drift(scenario)


@pytest.mark.explore
@settings(max_examples=10_000, deadline=None)
@given(_SCENARIO)
def test_ledger_and_per_fragment_medium_do_not_drift_on_a_larger_budget(
        scenario):
    _assert_no_drift(scenario)


def _scenario(**overrides):
    scenario = {"overhead": 0.25, "background": 0.0, "steady_loss": 0.0,
                "senders": [], "interrupts": [], "faults": [],
                "observers": [], "driver": "run", "deadlines": [0.0]}
    scenario.update(overrides)
    return scenario


def test_ledger_matches_reference_when_every_handoff_ties_with_a_prep():
    # Overhead == full wire time: whenever a packet leaves the wire, the
    # previous holder's next packet is ready at the same instant, so
    # who gets the medium is decided by ordering tickets alone.
    _assert_no_drift(_scenario(
        overhead=0.625, background=0.25,
        senders=[(True, [("send", 20, None), ("send", 12, None)])
                 for _ in range(4)],
        interrupts=[(2.5, 1), (5.0, 2)],
        faults=[(3.75, ("latency", 0.625)), (7.5, ("latency", 0.0))],
        observers=[1.25, 2.5, 3.75, 5.0, 6.25]))


def test_ledger_step_is_ordered_by_the_instant_it_was_created():
    # Sender 0's last wire time starts at 1.125 and ends at 1.75, but
    # the ledger pushes that step only at 1.25 (until then sender 1's
    # prep is the earlier one). Just before, also at 1.25, sender 2
    # schedules a timeout for 1.75 as well. The reference pushed the
    # wire timeout first, so sender 0 resumes first: the step must carry
    # the ticket of 1.125, not one taken when it is finally pushed.
    scenario = _scenario(senders=[
        (False, [("send", 8, None)]),
        (False, [("wait", 1.0), ("send", 4, None)]),
        (False, [("wait", 1.25), ("wait", 0.5)]),
    ])
    _assert_no_drift(scenario)
    at_the_tie = [entry[1:5] for entry in _drive_medium(scenario, Environment())
                  if entry[0] == 1.75]
    assert at_the_tie == [(0, 0, "sent", ()), (0, "done"),
                          (2, 1, "waited"), (2, "done")]


def test_ledger_matches_reference_across_an_interrupted_survivor():
    # The case that exposed the kernel's double resume: a sender that
    # outlives an interrupt used to be woken by the step it abandoned.
    _assert_no_drift(_scenario(
        senders=[(True, [("send", 16, None), ("send", 8, None)]),
                 (True, [("send", 16, None)])],
        interrupts=[(0.5, 0), (0.5, 1), (1.0, 0)]))


def _tied_senders(env, count=5):
    """``count`` identical senders on one ledger: their steps tie."""
    eth = Ethernet(env, _tie_profile())
    procs = [env.process(eth.send_fragments(16)) for _ in range(count)]
    return eth, procs


def test_tie_hook_installed_over_hidden_ledger_steps_is_refused():
    # Mid-flight the ledger has five senders' steps and the heap none of
    # them; a hook installed now would be shown no tie of theirs. It
    # must hear about it, not explore a fraction of the schedules.
    env = Environment()
    eth, _procs = _tied_senders(env)
    env.run(until=1.0)
    env.set_tie_hook(lambda tied: 0)
    with pytest.raises(ConsistencyError, match="tie hook was installed"):
        env.run()
    env.set_tie_hook(None)  # or the abandoned senders' clean-up raises too
    env.run()
    # The quiet case is no different: nothing is pending, but the next
    # sender's steps would be hidden all the same.
    assert eth.idle
    env.set_tie_hook(lambda tied: 0)
    late = env.process(eth.send_fragments(16))
    with pytest.raises(ConsistencyError, match="before building the segment"):
        env.run(until=late)


@pytest.mark.parametrize("background", [False, True])
def test_run_until_inside_a_large_transfer_stops_the_counters_there(
        background):
    # A window never crosses run(until=t): at the stop the counters say
    # what has left the wire by t, not what the ledger could work out.
    def stopped_at(env, deadline):
        eth, _ = make_net(env, background=background, seed=1989)
        env.process(eth.send_fragments(1 * MB))
        env.run(until=deadline)
        mid = (env.now, _snapshot(eth))
        env.run(until=2.0)
        return mid, (env.now, _snapshot(eth))

    for deadline in (0.0, 0.3, 0.7004, 1.0):
        ledger = stopped_at(Environment(), deadline)
        assert ledger == stopped_at(reference_env(), deadline)
        (now, mid), _end = ledger
        assert now == deadline and mid[0] < Ethernet(
            Environment(), PROFILE).packets_for(1 * MB)


def _events_to_send(env, eth, sizes):
    """Events scheduled from the first ``send_fragments`` to the last
    completion of one sender per size."""
    before = env.events_scheduled
    for proc in [env.process(eth.send_fragments(size)) for size in sizes]:
        env.run(until=proc)
    return env.events_scheduled - before


def test_contended_transfers_cost_a_handful_of_events():
    # The gain, locked in as a count: four 512 KB senders beside the
    # background daemon are ~1 400 fragments; per fragment the reference
    # path pays a prep, a grant and a wire event (4 867 in all). The
    # ledger takes no ordering ticket at all, so what is left is each
    # sender's own start-up and completion. A refactor that quietly
    # drops back to an event per hop — or per window — fails here.
    env = Environment()
    eth, _ = make_net(env, background=True, seed=1989)
    assert _events_to_send(env, eth, [512 * KB] * 4) <= 8
    assert env.now == 1.822894400000044
    reference = reference_env()
    eth, _ = make_net(reference, background=True, seed=1989)
    assert _events_to_send(reference, eth, [512 * KB] * 4) > 4000
    assert reference.now == env.now


def test_lone_message_on_an_idle_medium_costs_one_event():
    # Start-up of the process, then one event for the whole message (the
    # parent commit's analytic segment cost the same two).
    env = Environment()
    eth, _ = make_net(env)
    assert _events_to_send(env, eth, [8 * KB]) <= 2
    assert env.now == pytest.approx(eth.message_cost_lower_bound(8 * KB))


@pytest.mark.parametrize("background", [False, True])
@pytest.mark.parametrize("size", [0, 1, 8 * KB, 1 * MB])
def test_the_ledger_itself_schedules_nothing(size, background):
    # Whatever the size and whoever else is on the wire, a raw send moves
    # the kernel's ticket counter by the sending process's own start-up
    # and completion only: the ledger's share is zero.
    env = Environment()
    eth, _ = make_net(env, background=background, seed=1989)
    assert _events_to_send(env, eth, [size]) <= 2
    assert eth.stats.packets.value == eth.packets_for(size)


class _NullService(RpcService):
    OPNAMES = {1: "NULL"}

    def _dispatch(self, req):
        return RpcReply()
        yield  # a generator, like every dispatch


def test_null_rpc_under_sixteen_clients_stays_inside_its_event_budget():
    # Three hand-offs per RPC — the request into the inbox, the worker's
    # wake-up, the reply event — and nothing for the two messages: 9.02
    # events per RPC when every ledger step re-ticketed at each window
    # close, 3.04 now (the rest is the sixteen start-ups).
    env = Environment()
    _eth, rpc = make_net(env)
    service = _NullService(env, "null", transport=rpc, workers=4)
    service._start_serving(ServiceEndpoint(env, service.port, rpc))
    calls = 50

    def client():
        for _ in range(calls):
            reply = yield from rpc.trans(service.port, RpcRequest(opcode=1))
            assert reply.status == Status.OK

    before = env.events_scheduled
    for proc in [env.process(client()) for _ in range(16)]:
        env.run(until=proc)
    assert (env.events_scheduled - before) / (16 * calls) <= 3.25


# ------------------------------------ collapsing past the background daemon
#
# The daemon's steps resume nobody (the ledger's ``wake`` is +inf while
# it is alone on the segment): a process's own charge collapses past
# them, the kernel having the ledger perform them first. A foreground
# sender's steps, and the hop an interrupted one abandoned, keep the
# charge on the heap.


def _sleeper(env, count, delay, tickets):
    """A process that sleeps ``count`` times ``delay`` and notes the
    tickets taken across each sleep."""
    def sleeps():
        for _ in range(count):
            before = env.events_scheduled
            yield env.timeout(delay)
            tickets.append(env.events_scheduled - before)
    return env.process(sleeps())


def _sleeps_beside(env, before_sleeping=None):
    """200 sleeps of 2 ms on a segment with background load, after
    ``before_sleeping(env, eth)``; the tickets of each and what the
    segment shows when they are over."""
    eth, _ = make_net(env, background=True, seed=1989)
    if before_sleeping is not None:
        before_sleeping(env, eth)
    tickets = []
    env.run(until=_sleeper(env, 200, 0.002, tickets))
    return tickets, (env.now, _snapshot(eth))


def test_a_lone_sleeper_beside_the_daemon_takes_no_ticket():
    tickets, seen = _sleeps_beside(Environment())
    assert tickets == [0] * 200
    assert seen == _sleeps_beside(reference_env())[1]
    background_packets = seen[1][3]
    assert background_packets > 50


def test_sleeps_take_tickets_while_a_foreground_transfer_is_live():
    # 128 KB beside the daemon is on the segment for 81 sleeps: every
    # sleep till then crosses a step of the sender's, which may resume
    # it, and goes through the heap; after it, none does.
    def send(env, eth):
        env.process(eth.send_fragments(128 * KB))

    tickets, seen = _sleeps_beside(Environment(), send)
    assert seen == _sleeps_beside(reference_env(), send)[1]
    busy = tickets.index(0)
    assert busy == 81 and all(tickets[:busy]) and not any(tickets[busy:])


def test_a_sleep_across_an_abandoned_hop_takes_a_ticket():
    # The sender is interrupted 9 ms into a 64 KB message. The hop it
    # abandoned resumes nobody but moves the clock when it comes due
    # (the reference's timeout fires there), so it holds the first sleep
    # on the heap like a live sender's step; the segment already reads
    # idle, and the sleeps after it collapse.
    def interrupted(env, eth):
        def sender():
            try:
                yield from eth.send_fragments(64 * KB)
            except Interrupt:
                pass

        proc = env.process(sender())
        env.run(until=0.009)
        proc.interrupt()
        env.run(until=proc)
        assert eth.idle

    tickets, seen = _sleeps_beside(Environment(), interrupted)
    assert seen == _sleeps_beside(reference_env(), interrupted)[1]
    assert tickets == [1] + [0] * 199


def test_a_sender_interrupted_in_the_queue_leaves_nothing_to_wake():
    # B queues behind A's first packet at 0.56 ms. Interrupted there it
    # withdraws with no hop pending, so once A is through the sleeps
    # collapse past the daemon again.
    def queued(env, eth):
        first = env.process(eth.send_fragments(64 * KB))

        def sender():
            try:
                yield from eth.send_fragments(64 * KB)
            except Interrupt:
                pass

        proc = env.process(sender())
        env.run(until=0.001)
        assert eth.medium_queue_length == 1
        proc.interrupt()
        env.run(until=first)

    tickets, seen = _sleeps_beside(Environment(), queued)
    assert seen == _sleeps_beside(reference_env(), queued)[1]
    assert tickets == [0] * 200


# ---------------------------------- pending virtual work is scheduled work


def test_lone_senders_completion_is_scheduled_work():
    # With one sender and nothing else, the heap is empty while the
    # message is in flight: neither run(until=event)'s deadlock check
    # nor run(until=t)'s deadline may take that for the end.
    env = Environment()
    eth, _ = make_net(env)
    assert run_process(env, eth.send_fragments(8 * KB)) == []
    sent = env.now
    assert sent == pytest.approx(eth.message_cost_lower_bound(8 * KB))
    proc = env.process(eth.send_fragments(8 * KB))
    ended = []
    proc.callbacks.append(lambda _: ended.append(env.now))
    env.run(until=env.now)  # the process starts and joins the ledger
    assert proc.is_alive and not eth.idle
    env.run(until=env.now + sent / 2)  # mid-message: the ledger only
    assert proc.is_alive and not eth.idle
    env.run(until=env.now + sent)
    assert not proc.is_alive and eth.idle and proc.value == []
    assert ended == [pytest.approx(2 * sent)]


def test_run_without_until_ends_when_the_ledger_is_empty():
    env = Environment()
    eth, _ = make_net(env)
    procs = [env.process(eth.send_fragments(size)) for size in (1, 8 * KB)]
    env.run()  # the guard is +inf in the end: no spinning on it
    assert not any(proc.is_alive for proc in procs) and eth.idle
    assert eth.stats.packets.value == 1 + eth.packets_for(8 * KB)
    assert env.now >= eth.message_cost_lower_bound(8 * KB)


#: Interrupt instants inside a 64 KB message's sixth packet, which is
#: ready at 9.36 ms and off the wire at 10.56 ms.
_ABANDONED_HOPS = {"preparing": (0.0090, 0.00936),
                   "on the wire": (0.0101, 0.01056)}


@pytest.mark.parametrize("phase", sorted(_ABANDONED_HOPS))
@pytest.mark.parametrize("kernel", ["fast", "reference"])
def test_a_drained_run_ends_where_an_abandoned_hop_would_have(kernel, phase):
    # The reference's pending timeout of the interrupted hop stays on
    # its heap and a bare run() ends at its instant; the ledger keeps
    # the hop as a step that only moves the clock.
    env = Environment() if kernel == "fast" else reference_env()
    eth, _ = make_net(env)
    at, hop_end = _ABANDONED_HOPS[phase]

    def sender():
        try:
            yield from eth.send_fragments(64 * KB)
        except Interrupt:
            return env.now

    proc = env.process(sender())

    def interrupter():
        yield env.timeout(at)
        proc.interrupt()

    env.process(interrupter())
    env.run()
    assert proc.value == at
    assert env.now == pytest.approx(hop_end) and eth.idle
    assert eth.stats.packets.value == 5


@pytest.mark.parametrize("b_bytes, order", [
    (3, [(0.875, "a"), (0.875, "b")]),  # 0.375 + 0.5 on the wire: a tie
    (1, [(0.625, "b"), (0.875, "a")]),  # 0.375 + 0.25: b is through first
])
def test_two_segments_on_one_environment_interleave_in_creation_order(
        b_bytes, order):
    # a's 4-byte message is ready at 0.25 and through at 0.875. Segment
    # b was built first and its sender started first, but when both
    # leave their wires at 0.875 a resumes first: its packet went on the
    # wire at 0.25, b's at 0.375, so the reference pushed a's wire
    # timeout first. The kernel has to merge the two ledgers step by
    # step in (when, seq) order, not source by source.
    def both(env):
        b = Ethernet(env, _tie_profile(overhead=0.375))
        a = Ethernet(env, _tie_profile(overhead=0.25))
        log = []

        def sender(tag, eth, nbytes):
            yield from eth.send_fragments(nbytes)
            log.append((env.now, tag, _snapshot(a), _snapshot(b)))

        env.process(sender("b", b, b_bytes))
        env.process(sender("a", a, 4))
        env.run()
        return log

    log = both(Environment())
    assert log == both(reference_env())
    assert [entry[:2] for entry in log] == order


# ------------------------------------- the guard's legality rule, by name
#
# One 4-byte message on _tie_profile leaves the wire at 0.875 (0.25 of
# preparation, 0.625 on the wire). A rival whose timeout for 0.875 was
# pushed before the message joined runs first there; whatever zero-time
# hop it then takes is, in the reference, a heap entry *behind* the
# message's wire timeout. Each kernel fast path has to see the pending
# completion and decline.

_COMPLETION = 0.875


def _rival_at_the_completion(env, eth, rival_body, after_sending=None):
    """``rival_body(log)`` runs at 0.875 just ahead of the completion of
    a message on ``eth`` and ``after_sending(log)`` right after it;
    returns the log they and the rival's joiner write, in order."""
    log = []

    def rival():
        yield env.timeout(_COMPLETION)
        yield from rival_body(log)

    def sender():
        yield from eth.send_fragments(4)
        log.append((env.now, "sent"))
        if after_sending is not None:
            yield from after_sending(log)

    def joiner(proc):
        yield proc
        log.append((env.now, "rival over"))

    procs = [env.process(rival()), env.process(sender())]
    procs.append(env.process(joiner(procs[0])))
    env.run()
    assert not any(proc.is_alive for proc in procs)
    return log


def test_uncontended_lock_grant_yields_to_a_completion_of_the_same_instant():
    def on(env):
        table = FileLockTable(env)

        def rival(log):
            with table.reading(1) as lock:
                yield lock.grant
                log.append((env.now, "granted"))

        return _rival_at_the_completion(
            env, Ethernet(env, _tie_profile()), rival)

    assert on(Environment()) == on(reference_env()) == [
        (_COMPLETION, "sent"), (_COMPLETION, "granted"),
        (_COMPLETION, "rival over")]


def test_zero_length_charge_yields_to_a_completion_of_the_same_instant():
    # The rival's body-less request costs a zero-length marshalling
    # timeout, which the kernel may not run inline while the message's
    # completion is pending at this instant: the sender's second message
    # joins ahead of it and wins the tie for the medium one preparation
    # later.
    def on(env):
        eth = Ethernet(env, _tie_profile())
        rpc = RpcTransport(env, eth, CPU)
        endpoint = rpc.register(ServiceEndpoint(env, 7, rpc))

        def server():
            req = yield endpoint.getreq()
            yield from endpoint.putrep(req, RpcReply())

        env.process(server())

        def rival(log):
            yield from rpc.trans(7, RpcRequest(opcode=1))

        def second_message(log):
            yield from eth.send_fragments(4)
            log.append((env.now, "sent again"))

        return _rival_at_the_completion(env, eth, rival, second_message)

    log = on(Environment())
    assert log == on(reference_env())
    assert log[:2] == [(_COMPLETION, "sent"), (1.75, "sent again")]


def test_terminating_process_yields_to_a_completion_of_the_same_instant():
    # The rival ends at 0.875: its completion event is pushed there,
    # behind the wire timeout, so its joiner hears after the sender.
    def on(env):
        def rival(log):
            return
            yield

        return _rival_at_the_completion(
            env, Ethernet(env, _tie_profile()), rival)

    assert on(Environment()) == on(reference_env()) == [
        (_COMPLETION, "sent"), (_COMPLETION, "rival over")]


def test_interrupt_goes_before_a_ledger_step_of_the_same_instant():
    # The interrupt is scheduled at 0.875, long after the wire step was
    # made, and still goes first: priority 0 yields to nothing. The
    # sender is pulled off the wire with its fragment uncounted.
    def on(env):
        eth = Ethernet(env, _tie_profile())
        log = []

        def sender():
            try:
                yield from eth.send_fragments(4)
                log.append((env.now, "sent"))
            except Interrupt as exc:
                log.append((env.now, "interrupted", exc.cause))

        def interrupter(victim):
            yield env.timeout(_COMPLETION)
            victim.interrupt("at the completion")

        victim = env.process(sender())
        env.process(interrupter(victim))
        env.run()
        return log, _snapshot(eth)

    outcome = on(Environment())
    assert outcome == on(reference_env())
    log, (packets, *_rest, idle) = outcome
    assert log == [(_COMPLETION, "interrupted", "at the completion")]
    assert packets == 0 and idle


# One pass per packet: the pass that ends a packet grants the heir and
# readies the sender's next packet at once, and takes the next wire time
# directly, but only while each of those is strictly the next thing due.
# On _tie_profile two 16-byte senders round-robin: A is on the wire
# 0.25-0.875, B 0.875-1.5 while A's next packet is ready at 1.125 and
# queues, A again 1.5-2.125.


class _ScriptedStream:
    """A stream whose background gaps come from a list, in order: the
    daemon's packets land on dyadic instants chosen by the test."""

    def __init__(self, gaps):
        self._gaps = iter(gaps)

    def expovariate(self, rate):
        return next(self._gaps)


@pytest.mark.parametrize("gap", [1.0, 1.125])
def test_fold_yields_to_a_background_gap_that_ends_before_the_next_prep(gap):
    # A lone 16-byte sender leaves the wire at 0.875 and would be ready
    # again at 1.125; the daemon's packet is ready at ``gap`` (on a tie
    # its step is the older one) and takes the medium first, 0.25 on the
    # wire.
    def on(env):
        eth = Ethernet(env, _tie_profile(background=0.25),
                       stream=_ScriptedStream([gap, 100.0]),
                       background_load=True)
        log = []

        def sender():
            yield from eth.send_fragments(16)
            log.append((env.now, _snapshot(eth)))

        env.process(sender())
        env.run(until=50.0)
        return log

    log = on(Environment())
    assert log == on(reference_env())
    assert [(now, snapshot[3]) for now, snapshot in log] == [
        (gap + 0.25 + 3 * 0.625 + 2 * 0.25, 1)]


@pytest.mark.parametrize("senders, at, pushed_at, seen", [
    # A's prep at 1.125: a timeout pushed before that step was made (at
    # 0.875) goes first and sees A still preparing; one pushed after it
    # sees A queued.
    (2, 1.125, 0.0, (1, 0)),
    (2, 1.125, 1.0, (1, 1)),
    # B's wire end at 1.5, the step taken directly: the same.
    (2, 1.5, 0.0, (1, 1)),
    (2, 1.5, 1.25, (2, 0)),
    # Alone, A is on the wire again 1.125-1.75, also taken directly.
    (1, 1.75, 0.0, (1, 0)),
    (1, 1.75, 1.5, (2, 0)),
])
def test_fold_yields_to_a_real_event_at_a_folded_steps_instant(
        senders, at, pushed_at, seen):
    def on(env):
        eth = Ethernet(env, _tie_profile())
        log = []

        def rival():
            if pushed_at:
                yield env.timeout(pushed_at)
            yield env.timeout(at - pushed_at)
            log.append((env.now, eth.stats.packets.value,
                        eth.medium_queue_length))

        env.process(rival())
        for _ in range(senders):
            env.process(eth.send_fragments(16))
        env.run()
        return log, _snapshot(eth)

    outcome = on(Environment())
    assert outcome == on(reference_env())
    assert outcome[0] == [(at, *seen)]


def test_run_until_inside_back_to_back_packets_reads_as_the_reference():
    # Two 40-byte senders round-robin from 0.25 to 12.75; every stop
    # at an eighth of a second lands on or between folded steps.
    def stops(env):
        eth = Ethernet(env, _tie_profile())
        procs = [env.process(eth.send_fragments(40)) for _ in range(2)]
        seen = []
        for i in range(1, 113):
            env.run(until=i * 0.125)
            seen.append((env.now, _snapshot(eth)))
        assert not any(proc.is_alive for proc in procs)
        return seen

    seen = stops(Environment())
    assert seen == stops(reference_env())
    queued = {snapshot[5] for _now, snapshot in seen}
    idle = {snapshot[6] for _now, snapshot in seen}
    assert queued == {0, 1} and idle == {False, True}


def test_a_preparation_left_pending_bounds_the_fold_after_a_latency_spike():
    # Under a 0.625 latency spike, at 1.5 A's spike ends just as B
    # leaves the wire to C. A's next packet, ready at 1.75, is left
    # pending (B's older step at 1.5 goes first) and is then the earliest
    # thing due: C's wire end at 1.875 may not be taken before it, or A
    # would find the medium idle instead of queueing behind C.
    scenario = _scenario(
        senders=[(True, [("send", 5, None)]), (True, [("send", 4, None)]),
                 (True, [("send", 2, None)])],
        faults=[(0.0, ("latency", 0.625))])
    _assert_no_drift(scenario)
    sent = [entry[:2] for entry in _drive_medium(scenario, Environment())
            if len(entry) == 6 and entry[3] == "sent"]
    assert sent == [(2.125, 1), (2.5, 2), (2.75, 0)]


def test_fold_yields_to_the_holders_wire_end_at_the_same_instant():
    # A leaves the wire at 0.875 into a 0.25 latency spike, lifted at
    # 1.0, and its next packet is ready at 1.375, just as B's only
    # fragment leaves the wire. B's wire step is the older one: B hands
    # the medium to C (queued since 1.0) and finishes before A queues.
    def on(env):
        eth = Ethernet(env, _tie_profile())
        eth.set_fault(extra_latency=0.25)
        seen = []

        def lift():
            yield env.timeout(1.0)
            eth.set_fault(extra_latency=0.0)

        def b():
            yield from eth.send_fragments(3)
            seen.append((env.now, eth.medium_queue_length))

        def c():
            yield env.timeout(0.75)
            yield from eth.send_fragments(4)

        env.process(eth.send_fragments(8))
        env.process(b())
        env.process(c())
        env.process(lift())
        env.run()
        return seen, _snapshot(eth)

    outcome = on(Environment())
    assert outcome == on(reference_env())
    assert outcome[0] == [(1.375, 0)]


def test_fold_keeps_loss_draws_and_retransmitted_tails_in_reference_order():
    # 38 bytes are nine full fragments and a 2-byte tail. Loss draws
    # happen in the pass that ends each fragment, folded or not, and a
    # retransmission that sends the tail first goes back to full size.
    scenario = _scenario(steady_loss=0.3, senders=[
        (True, [("send", 38, None), ("send", 38, [9, 0, 4])]),
        (True, [("wait", 0.125), ("send", 38, [2, 9, 5])]),
    ])
    _assert_no_drift(scenario)
    lost = [entry[4] for entry in _drive_medium(scenario, Environment())
            if len(entry) == 6 and entry[3] == "sent"]
    assert any(lost) and not all(lost)


class _IdleSource:
    """A virtual source with nothing pending, registered for the step
    counter ``add_source`` hands out."""

    guard = wake = float("inf")
    head = (guard, 0, 0)

    def advance(self, bound):
        return False


def test_a_lone_megabyte_draws_a_handful_of_ledger_steps():
    # 722 packets: one step drawn per preparation, grant and wire time
    # (2 166) when every step went through the loop top; the fold leaves
    # the join's and little else.
    def send(env):
        eth, _ = make_net(env)
        counter = env.add_source(_IdleSource())
        before = next(counter)
        run_process(env, eth.send_fragments(1 * MB))
        return next(counter) - before - 1, env.now

    draws, now = send(Environment())
    assert draws <= 3
    assert now == send(reference_env())[1] == 1.2697503999999917


def test_a_busy_medium_draws_a_handful_of_ledger_steps():
    # Four 512 KB senders from t=0 beside the daemon: 1 444 fragments
    # handed from sender to sender, 174 background packets cutting in.
    # When a background packet broke the fold for a few passes, this
    # drew 739 steps (4.2 per background packet); the busy stretch takes
    # hand-offs, background packets and gap ends in one loop and draws a
    # step only for what is still pending when it stops.
    def send(env):
        eth = Ethernet(env, DEFAULT_TESTBED.ethernet,
                       stream=SeededStream(1989, "ether"),
                       background_load=True)
        counter = env.add_source(_IdleSource())
        before = next(counter)
        log = []

        def sender(i):
            lost = yield from eth.send_fragments(512 * KB)
            log.append((env.now, i, lost, _snapshot(eth)))

        for proc in [env.process(sender(i)) for i in range(4)]:
            env.run(until=proc)
        return log, next(counter) - before - 1

    log, draws = send(Environment())
    assert log == send(reference_env())[0]
    now, _i, _lost, (packets, *_rest) = log[-1]
    background = log[-1][3][3]
    assert (now, packets, background) == (1.8213440000000438, 1444, 174)
    assert draws <= 1.5 * background


# The busy stretch by its tie points. On _tie_profile(0.5) with the
# daemon on, a full fragment is 0.625 s on the wire, a background packet
# 0.25 s, shorter than a preparation; the gaps come from the test. Two
# 16-byte senders A and B join at 0: A is on the wire 0.5-1.125, B
# 1.125-1.75 while A's next packet is ready at 1.625, and so on. A rival
# reads the medium at an instant from a timeout pushed at another.


def _background_scene(env, gaps, senders=((0.0, 16), (0.0, 16)),
                      rivals=(), overhead=0.5):
    eth = Ethernet(env, _tie_profile(overhead, background=0.25),
                   stream=_ScriptedStream(gaps), background_load=True)
    log = []

    def sender(i, start, size):
        if start:
            yield env.timeout(start)
        yield from eth.send_fragments(size)
        log.append((env.now, i, _snapshot(eth)))

    def rival(at, pushed_at):
        if pushed_at:
            yield env.timeout(pushed_at)
        yield env.timeout(at - pushed_at)
        log.append((env.now, "rival", _snapshot(eth)))

    for i, (start, size) in enumerate(senders):
        env.process(sender(i, start, size))
    for at, pushed_at in rivals:
        env.process(rival(at, pushed_at))
    env.run(until=50.0)
    return log


def _same_scene(*args, **kwargs):
    log = _background_scene(Environment(), *args, **kwargs)
    assert log == _background_scene(reference_env(), *args, **kwargs)
    return log


@pytest.mark.parametrize("gaps, at, pushed_at, queued", [
    # The first gap ends at 1.625, just as A's next packet is ready: the
    # gap end is the older step (drawn at 0), so the daemon queues ahead
    # of A and is on the wire 1.75-2.0. A rival pushed before A's
    # preparation was made (at 1.125) sees the daemon queued and A not
    # yet; one pushed after it sees both.
    ([1.625, 100.0], 1.625, 0.0, 1),
    ([1.625, 100.0], 1.625, 1.0, 1),
    ([1.625, 100.0], 1.625, 1.25, 2),
    # The first gap ends at 1.25, so the daemon is on the wire 1.75-2.0
    # and draws the next gap there, inside the busy stretch: it ends at
    # 3.125, just as A's next packet is ready (A is on the wire
    # 2.0-2.625). The gap end, drawn at 2.0, is again the older step.
    ([1.25, 1.125, 100.0], 3.125, 0.0, 0),
    ([1.25, 1.125, 100.0], 3.125, 2.25, 1),
    ([1.25, 1.125, 100.0], 3.125, 3.0, 2),
    # With no real event at 3.125 the stretch queues both in the pass
    # that hands the medium to B; the rival sees the daemon's packet
    # through (3.25-3.5) and A on the wire after it.
    ([1.25, 1.125, 100.0], 3.625, 0.0, 0),
])
def test_a_gap_end_at_the_leavers_preparation_queues_first(
        gaps, at, pushed_at, queued):
    log = _same_scene(gaps, rivals=[(at, pushed_at)])
    snapshot = log[0][2]
    assert snapshot[5] == queued
    if at == 3.625:
        assert snapshot[3] == 2
    finished = [entry[:2] for entry in log[1:]]
    assert finished == ([(5.125, 0), (5.75, 1)] if at == 1.625
                        else [(5.375, 0), (6.0, 1)])


@pytest.mark.parametrize("pushed_at, seen", [
    # (packets through, queue length): a rival pushed before B's wire
    # end was made (at 1.125) sees A and the daemon queued; one pushed
    # after it sees B through and the daemon alone behind A.
    (0.0, (1, 2)), (1.0, (1, 2)), (1.5, (2, 1))])
def test_a_gap_end_at_the_heirs_wire_end_queues_before_it_leaves(
        pushed_at, seen):
    # The gap ends at 1.75, the instant B leaves the wire: the gap end
    # is older than B's wire end, so the daemon is queued (behind A)
    # when B hands the medium on.
    log = _same_scene([1.75, 100.0], rivals=[(1.75, pushed_at)])
    snapshot = log[0][2]
    assert (snapshot[0], snapshot[5]) == seen
    assert [entry[:2] for entry in log[1:]] == [(5.125, 0), (5.75, 1)]


@pytest.mark.parametrize("second_gap, at, pushed_at, seen", [
    # (packets through, queue length). The first gap ends at 1.25, the
    # second is drawn at 2.0, inside the busy stretch; B is on the wire
    # 2.625-3.25 and A's next packet is ready at 3.125. A rival whose
    # timeout was pushed before the step of its instant was made goes
    # first; one pushed after it sees the step done.
    # The gap end and A's preparation queue while B is on the wire, and
    # B's wire end is on the rival's instant.
    (1.125, 3.25, 0.0, (3, 2)), (1.125, 3.25, 3.0, (4, 1)),
    # The gap end is on the rival's instant.
    (1.0, 3.0, 0.0, (3, 0)), (1.0, 3.0, 2.5, (3, 1)),
    # The gap end queues the daemon behind A, and then B's wire end is
    # on the rival's instant.
    (1.1875, 3.25, 0.0, (3, 2)), (1.1875, 3.25, 3.0, (4, 1)),
])
def test_the_busy_stretch_yields_to_a_real_event_of_the_same_instant(
        second_gap, at, pushed_at, seen):
    log = _same_scene([1.25, second_gap, 100.0], rivals=[(at, pushed_at)])
    snapshot = log[0][2]
    assert (snapshot[0], snapshot[5]) == seen


@pytest.mark.parametrize("at, pushed_at, queued", [
    (1.625, 0.0, 0), (1.625, 1.5, 1),
    # No real event at 1.625: the busy stretch itself picks A.
    (2.0, 0.0, 1)])
def test_a_preparation_at_a_gap_end_drawn_after_it_claims_the_medium(
        at, pushed_at, queued):
    # A alone beside the daemon, whose first gap ends at 1.0, while A is
    # on the wire: the daemon goes on at 1.125, and A's next packet is
    # ready at 1.625. The daemon is through at 1.375 and draws a gap
    # that ends at 1.625 too: A's preparation is the older step, so A
    # takes the idle medium and the daemon queues behind it.
    log = _same_scene([1.0, 0.25, 100.0], senders=((0.0, 16),),
                      rivals=[(at, pushed_at)])
    snapshot = log[0][2]
    assert (snapshot[3], snapshot[5]) == (1, queued)
    assert log[1][:2] == (4.5, 0)


def test_a_gap_end_drawn_before_a_preparation_on_the_bound_goes_first():
    # The second scene above, with a rival at 3.125 pushed at 0: the
    # busy stretch stops at that instant with the gap end and A's
    # preparation both pending, and leaves them pending in the order
    # they were made. A second rival at 3.625 sees the daemon's packet
    # through (3.25-3.5) and A on the wire after it.
    log = _same_scene([1.25, 1.125, 100.0],
                      rivals=[(3.125, 0.0), (3.625, 0.0)])
    assert [entry[2][3] for entry in log[:2]] == [1, 2]


def test_a_gap_end_drawn_before_a_lone_senders_preparation_goes_first():
    # A alone beside the daemon: the first gap ends at 1.0, and the
    # daemon goes on after A's first packet (1.125-1.375); the second
    # gap, drawn at 1.375, ends at 2.75, just as A (through again at
    # 2.25) is ready. A rival at 2.75, pushed at 0, stops the ledger
    # right there. The gap end is the older step: the daemon takes the
    # idle medium, A queues behind it and finishes at 4.75.
    log = _same_scene([1.0, 1.375, 100.0], senders=((0.0, 16),),
                      rivals=[(2.75, 0.0), (3.0, 0.0)])
    assert [entry[2][5] for entry in log[:2]] == [0, 1]
    assert log[2][:2] == (4.75, 0)


@pytest.mark.parametrize("pushed_at, seen", [(0.0, 1), (1.875, 2)])
def test_a_lone_daemon_yields_to_a_real_event_at_its_wire_end(
        pushed_at, seen):
    # Nobody else on the medium: background packets 1.0-1.25, 1.75-2.0
    # and 2.5-2.75. A rival at 2.0 pushed before the second packet's
    # wire end was made (at 1.75) sees one background packet through;
    # one pushed after it sees two.
    log = _same_scene([1.0, 0.5, 0.5, 100.0], senders=(),
                      rivals=[(2.0, pushed_at)])
    assert log[0][2][3] == seen


@pytest.mark.parametrize("pushed_at, seen", [
    # (background packets through, queue length)
    (0.0, (0, 2)), (2.0, (0, 2)), (2.25, (1, 2))])
def test_a_background_heirs_wire_end_at_the_leavers_preparation(
        pushed_at, seen):
    # A preparation as long as a background packet, three senders: the
    # gap ends at 1.0 and the daemon queues behind C; C leaves at 2.125,
    # and the daemon, on the wire, is through at 2.375 just as C's next
    # packet is ready. The preparation is the older step: C queues
    # before the daemon hands the medium to A.
    log = _same_scene([1.0, 100.0], rivals=[(2.375, pushed_at)],
                      senders=((0.0, 16), (0.0, 16), (0.0, 16)),
                      overhead=0.25)
    snapshot = log[0][2]
    assert (snapshot[3], snapshot[5]) == seen
    assert [entry[:2] for entry in log[1:]] == [
        (6.75, 0), (7.375, 1), (8.0, 2)]


def test_a_grant_on_the_bound_is_left_pending():
    # Found by the drift guard at the explore budget. A's packet is
    # ready at 0.125, the instant B's first wait ends. A's preparation
    # is the older and is performed first: A finds the medium idle, but
    # its grant, made then, is newer than B's wait. So B goes first and
    # makes its next timeout (0.625) before the grant makes A's wire
    # end of that same instant: at 0.625 B resumes before A.
    scenario = _scenario(overhead=0.125, senders=[
        (False, [("send", 3, None)]),
        (False, [("wait", 0.125), ("wait", 0.5)])])
    _assert_no_drift(scenario)
    log = _drive_medium(scenario, Environment())
    assert [entry[1:4] for entry in log if entry[0] == 0.625] == [
        (1, 1, "waited"), (1, "done"), (0, 0, "sent"), (0, "done")]


def test_steps_left_pending_on_a_tie_keep_their_creation_order():
    # Found by the drift guard at the explore budget. A preparation as
    # long as a full fragment: every hand-off ties with the leaver's
    # next packet, and the tails are shorter. The observer at 9.125
    # stops the busy stretch while a preparation kept in a local and
    # the holder's step are both pending: left pending in the order
    # they were made, the preparation first, they play out as the
    # reference's.
    _assert_no_drift(_scenario(
        overhead=0.625, observers=[9.125],
        senders=[(False, [("send", 40, None)]),
                 (False, [("send", 40, None)]),
                 (False, [("send", 9, None), ("send", 8, None)])]))


def test_a_wire_end_on_the_bound_leaves_the_heirs_grant_pending():
    # Found by the drift guard at the explore budget. Sender 1's first
    # fragment leaves the wire at 0.75 and the daemon, queued ahead of
    # sender 2's empty message, is on until 1.0, when sender 0's wait
    # ends and its completion is scheduled. The daemon's wire end,
    # made at 0.75, goes before that completion; the grant it hands to
    # sender 2 is made after it, so sender 3, joining on the completion,
    # prepares first: ready at 1.125, it queues before sender 2's wire
    # end of that instant, and sender 2, finishing, sees it queued.
    scenario = _scenario(overhead=0.125, background=0.5, senders=[
        (False, [("wait", 1.0)]),
        (False, [("send", 40, None)]),
        (False, [("wait", 0.125), ("send", 0, None)]),
        (False, [("join", 0), ("send", 0, None)])])
    _assert_no_drift(scenario)
    sent = [entry for entry in _drive_medium(scenario, Environment())
            if len(entry) == 6 and entry[3] == "sent"]
    assert sent[0][:2] == (1.125, 2) and sent[0][5][5] == 1


@pytest.mark.parametrize("deadline, seen", [
    # (packets, background packets, queue length) at the stop
    (1.75, (2, 0, 1)), (2.0, (2, 1, 0)), (2.375, (2, 1, 1))])
def test_the_busy_stretch_stops_at_a_wire_end_on_the_bound(deadline, seen):
    # The gap ends at 1.25, while B is on the wire: the daemon queues
    # ahead of A. run(until=t) at B's wire end (1.75), at the daemon's
    # (2.0) and inside A's next wire time, B queued (2.375): each step
    # at the stop is performed, as the bound includes its instant, and
    # nothing after it is.
    def stops(env):
        log = []
        eth = Ethernet(env, _tie_profile(0.5, background=0.25),
                       stream=_ScriptedStream([1.25, 100.0]),
                       background_load=True)
        for _ in range(2):
            env.process(eth.send_fragments(16))
        env.run(until=deadline)
        log.append((env.now, _snapshot(eth)))
        env.run(until=50.0)
        log.append((env.now, _snapshot(eth)))
        return log

    log = stops(Environment())
    assert log == stops(reference_env())
    (_now, stopped), (_end, (packets, *_rest)) = log
    assert (stopped[0], stopped[3], stopped[5]) == seen and packets == 8


# A charge is a process's own timeout. The kernel runs the process
# through it inline only when nothing can come between: each of these
# has something that does, so the charge has to go through the heap.


def _charger_beside_a_message(env, charge):
    """A 4-byte message on _tie_profile leaves the wire at 0.875; a
    charger that reaches 0.5 after it joined then charges ``charge``."""
    eth = Ethernet(env, _tie_profile())
    log = []

    def sender():
        yield from eth.send_fragments(4)
        log.append((env.now, "sent"))

    def charger():
        yield env.timeout(0.5)
        yield env.timeout(charge)
        log.append((env.now, "charged"))

    env.process(sender())
    env.process(charger())
    env.run()
    return log


@pytest.mark.parametrize("charge, log", [
    # Ends exactly at the pending ledger step, made before the charge:
    # the step goes first.
    (0.375, [(_COMPLETION, "sent"), (_COMPLETION, "charged")]),
    # Ends past it: the sender resumes in between.
    (0.5, [(_COMPLETION, "sent"), (1.0, "charged")]),
])
def test_charge_declines_at_or_past_a_pending_ledger_step(charge, log):
    assert (_charger_beside_a_message(Environment(), charge)
            == _charger_beside_a_message(reference_env(), charge) == log)


def test_charge_declines_when_it_ends_at_a_heap_entrys_instant():
    # The sleeper's timeout for 1.0 was pushed first: at 1.0 it goes
    # ahead of the charge the worker makes at 0.5.
    def on(env):
        log = []

        def sleeper():
            yield env.timeout(1.0)
            log.append((env.now, "slept"))

        def worker():
            yield env.timeout(0.5)
            yield env.timeout(0.5)
            log.append((env.now, "charged"))

        env.process(sleeper())
        env.process(worker())
        env.run()
        return log

    assert on(Environment()) == on(reference_env()) == [
        (1.0, "slept"), (1.0, "charged")]


def test_charge_declines_when_it_would_cross_what_the_caller_sees():
    # run(until=0.5)'s caller looks at the world at 0.5: a charge for
    # 1.0 made at 0 stays pending, though nothing else is scheduled.
    def on(env):
        log = []

        def worker():
            yield env.timeout(1.0)
            log.append((env.now, "charged"))

        env.process(worker())
        env.run(until=0.5)
        seen = (env.now, list(log))
        env.run()
        return seen, log

    assert on(Environment()) == on(reference_env()) == (
        (0.5, []), [(1.0, "charged")])
