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
                       RpcTransport)
from repro.profiles import CpuProfile, EthernetProfile
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


# ------------------------------------------------------------------ rpc


OP_ECHO = 1
OP_FAIL = 2


def echo_server(env, rpc, port):
    """A server echoing request bodies; OP_FAIL raises NotFoundError."""
    endpoint = rpc.register(port)

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
    rpc.register(100)  # registered but nobody serves the inbox

    def client():
        try:
            yield env.process(rpc.trans(100, RpcRequest(opcode=1), timeout=0.25))
        except RpcTimeoutError:
            return "timed out"

    assert run_process(env, client()) == "timed out"


def test_crash_fails_pending_requests():
    env = Environment()
    _, rpc = make_net(env)
    endpoint = rpc.register(100)

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
    endpoint = rpc.register(100)

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
    endpoint = rpc.register(100)
    endpoint.crash()
    rpc.register(100)  # must not raise


def test_double_register_rejected():
    env = Environment()
    _, rpc = make_net(env)
    rpc.register(100)
    with pytest.raises(ValueError):
        rpc.register(100)


def test_large_reply_dominates_latency():
    """Reading 64 KB must take much longer than a null RPC and scale
    with the body size."""
    env = Environment()
    _, rpc = make_net(env)
    port = 100
    endpoint = rpc.register(port)

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
    endpoint = rpc.register(100)
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
    st.just("send"), st.integers(0, 20),
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
    "overhead": st.sampled_from((0.125, 0.25, 0.5, 0.625)),
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
    bit-exact counters read mid-flight and at every ``run()`` boundary,
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
                    log.append((env.now, wid, step, "sent", tuple(lost)))
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
    at_the_tie = [entry[1:] for entry in _drive_medium(scenario, Environment())
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
    service._start_serving()
    calls = 50

    def client():
        for _ in range(calls):
            reply = yield from rpc.trans(service.port, RpcRequest(opcode=1))
            assert reply.status == Status.OK

    before = env.events_scheduled
    for proc in [env.process(client()) for _ in range(16)]:
        env.run(until=proc)
    assert (env.events_scheduled - before) / (16 * calls) <= 3.25


# ---------------------------------- pending virtual work is scheduled work


def test_lone_senders_completion_is_scheduled_work():
    # With one sender and nothing else, the heap is empty while the
    # message is in flight: neither run(until=event)'s deadlock check
    # nor step()'s "no scheduled events" may take that for the end.
    env = Environment()
    eth, _ = make_net(env)
    assert run_process(env, eth.send_fragments(8 * KB)) == []
    sent = env.now
    assert sent == pytest.approx(eth.message_cost_lower_bound(8 * KB))
    proc = env.process(eth.send_fragments(8 * KB))
    env.step()  # the process starts and joins the ledger
    assert proc.is_alive and not eth.idle
    env.step()  # every step of the message; the last resumes the sender
    assert not proc.is_alive and eth.idle
    assert env.now == pytest.approx(2 * sent)
    with pytest.raises(RuntimeError, match="no scheduled events"):
        env.step()


def test_run_without_until_ends_when_the_ledger_is_empty():
    env = Environment()
    eth, _ = make_net(env)
    procs = [env.process(eth.send_fragments(size)) for size in (1, 8 * KB)]
    env.run()  # the guard is +inf in the end: no spinning on it
    assert not any(proc.is_alive for proc in procs) and eth.idle
    assert eth.stats.packets.value == 1 + eth.packets_for(8 * KB)
    assert env.now >= eth.message_cost_lower_bound(8 * KB)


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
        endpoint = rpc.register(7)

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


@pytest.mark.parametrize("stop", ["until", "step"])
def test_charge_declines_when_it_would_cross_what_the_caller_sees(stop):
    # run(until=0.5)'s caller looks at the world at 0.5, and step()'s
    # right after one dispatch: a charge for 1.0 made at 0 stays pending
    # for both, though nothing else is scheduled.
    def on(env):
        log = []

        def worker():
            yield env.timeout(1.0)
            log.append((env.now, "charged"))

        env.process(worker())
        if stop == "until":
            env.run(until=0.5)
        else:
            env.step()
        seen = (env.now, list(log))
        env.run()
        return seen, log

    assert on(Environment()) == on(reference_env()) == (
        (0.5 if stop == "until" else 0.0, []), [(1.0, "charged")])
