"""Tests for packet loss and RPC retransmission with at-most-once
execution semantics."""

import pytest
from dataclasses import replace

from repro.client import BulletClient
from repro.errors import RpcTimeoutError
from repro.net import Ethernet, RpcReply, RpcRequest, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, SeededStream, run_process
from repro.units import KB

from conftest import make_bullet


def make_lossy_net(env, loss, seed=21):
    profile = replace(EthernetProfile(), loss_probability=loss)
    eth = Ethernet(env, profile, stream=SeededStream(seed, "eth"))
    rpc = RpcTransport(env, eth, CpuProfile())
    rpc.retransmit_interval = 0.05  # keep tests quick
    return eth, rpc


def counting_server(env, rpc, port=100):
    """Echo server that counts how many times it *executed* a request."""
    endpoint = rpc.register(port)
    executions = []

    def loop():
        while True:
            req = yield endpoint.getreq()
            executions.append(req.txid)
            yield env.process(endpoint.putrep(req, RpcReply(body=req.body)))

    env.process(loop())
    return executions


def test_loss_requires_stream():
    env = Environment()
    with pytest.raises(ValueError):
        Ethernet(env, replace(EthernetProfile(), loss_probability=0.1))


def test_lossy_send_reports_delivery():
    env = Environment()
    eth, _ = make_lossy_net(env, loss=0.5, seed=3)

    def proc():
        outcomes = []
        for _ in range(40):
            outcomes.append((yield env.process(eth.send_message(100))))
        return outcomes

    outcomes = run_process(env, proc())
    assert any(outcomes) and not all(outcomes)
    assert eth.stats.lost_packets > 0


def test_rpc_succeeds_despite_loss():
    env = Environment()
    eth, rpc = make_lossy_net(env, loss=0.25, seed=11)
    executions = counting_server(env, rpc)

    def client():
        replies = []
        for i in range(20):
            reply = yield env.process(
                rpc.trans(100, RpcRequest(opcode=1, body=bytes([i])))
            )
            replies.append(reply.body)
        return replies

    replies = run_process(env, client())
    assert replies == [bytes([i]) for i in range(20)]
    # Losses definitely happened; retransmissions recovered them.
    assert eth.stats.lost_packets > 0
    assert rpc.metrics.value("repro_rpc_retransmits_total") > 0


def test_at_most_once_execution():
    """Whatever the wire does, the server executes each transaction
    exactly once (duplicates are answered from the reply cache)."""
    env = Environment()
    eth, rpc = make_lossy_net(env, loss=0.35, seed=17)
    executions = counting_server(env, rpc)

    def client():
        for i in range(15):
            yield env.process(rpc.trans(100, RpcRequest(opcode=1, body=b"x")))

    run_process(env, client())
    assert len(executions) == 15
    assert len(set(executions)) == 15  # every txid served exactly once
    assert rpc.metrics.value("repro_rpc_retransmits_total") > 0


def test_total_loss_times_out():
    env = Environment()
    _eth, rpc = make_lossy_net(env, loss=1.0, seed=5)
    counting_server(env, rpc)

    def client():
        try:
            yield env.process(rpc.trans(100, RpcRequest(opcode=1),
                                        timeout=0.3))
        except RpcTimeoutError:
            return "timed out"

    assert run_process(env, client()) == "timed out"


def test_give_up_after_max_retransmits():
    env = Environment()
    _eth, rpc = make_lossy_net(env, loss=1.0, seed=5)
    rpc.max_retransmits = 4
    counting_server(env, rpc)

    def client():
        try:
            yield env.process(rpc.trans(100, RpcRequest(opcode=1)))
        except RpcTimeoutError as exc:
            return str(exc)

    message = run_process(env, client())
    assert "gave up after 4" in message


def test_bullet_ops_end_to_end_on_lossy_network():
    """CREATE is not idempotent — at-most-once matters: under 20% loss,
    20 creates make exactly 20 files."""
    env = Environment()
    eth, rpc = make_lossy_net(env, loss=0.2, seed=29)
    bullet = make_bullet(env, transport=rpc)
    client = BulletClient(env, rpc, bullet.port)

    def scenario():
        caps = []
        for i in range(20):
            caps.append((yield from client.create(bytes([i]) * 100, 1)))
        for i, cap in enumerate(caps):
            assert (yield from client.read(cap)) == bytes([i]) * 100
        return caps

    caps = run_process(env, scenario())
    assert bullet.stats.creates == 20
    assert bullet.table.live_count == 20
    assert eth.stats.lost_packets > 0


def test_selective_retransmission_of_large_messages():
    """A 64-packet request under 5% loss: whole-message retries would
    essentially never complete (0.95^64 ≈ 3.7% per attempt); selective
    fragment retransmission completes in a few rounds, resending only
    what was lost."""
    env = Environment()
    eth, rpc = make_lossy_net(env, loss=0.05, seed=99)
    counting_server(env, rpc)
    body = bytes(90 * KB)

    def client():
        reply = yield env.process(
            rpc.trans(100, RpcRequest(opcode=1, body=body))
        )
        return len(reply.body)

    assert run_process(env, client()) == len(body)
    # Bytes on the wire stay near 2x the payload (request + echoed
    # reply) plus the retransmitted tail — nowhere near the dozens of
    # full copies a whole-message scheme would need.
    assert eth.stats.payload_bytes < 3.0 * len(body)
    assert eth.stats.lost_packets > 0


def test_reply_loss_recovered_by_probe():
    """Force reply losses: the client's header-only probe makes the
    endpoint resend the cached reply; the server executes once."""
    env = Environment()
    eth, rpc = make_lossy_net(env, loss=0.45, seed=1)
    executions = counting_server(env, rpc)

    def client():
        for _ in range(6):
            yield env.process(rpc.trans(100, RpcRequest(opcode=1, body=b"q")))

    run_process(env, client())
    assert len(executions) == 6
    assert len(set(executions)) == 6


def test_loss_is_deterministic():
    def run_once():
        env = Environment()
        eth, rpc = make_lossy_net(env, loss=0.3, seed=41)
        counting_server(env, rpc)

        def client():
            for _ in range(10):
                yield env.process(rpc.trans(100, RpcRequest(opcode=1)))
            return env.now

        return run_process(env, client()), eth.stats.lost_packets

    assert run_once() == run_once()
