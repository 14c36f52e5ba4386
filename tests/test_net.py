"""Tests for the Ethernet model and the RPC layer."""

import pytest

from repro.client.retry import RpcStub
from repro.errors import NotFoundError, RpcTimeoutError, ServerDownError, Status
from repro.net import Ethernet, RpcReply, RpcRequest, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, SeededStream, run_process
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
    assert eth.stats.packets == 3
    assert eth.stats.payload_bytes == 3 * PROFILE.max_payload


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
        return (env.now, eth.stats.background_packets, eth.stats.wire_time)

    assert totals(Environment()) == totals(reference_env())
