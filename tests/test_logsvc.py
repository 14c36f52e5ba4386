"""Tests for the append-optimized log server."""

import pytest

from repro.capability import Capability, RIGHT_CREATE, RIGHT_READ, restrict
from repro.disk import VirtualDisk
from repro.errors import (
    BadRequestError,
    DiskIOError,
    NotFoundError,
    RightsError,
    Status,
)
from repro.logsvc import LOG_OPCODES, LogServer
from repro.logsvc.server import MAX_LOGS
from repro.net import Ethernet, RpcRequest, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, run_process

from conftest import SMALL_DISK, small_testbed


def make_log_server(env):
    disk = VirtualDisk(env, SMALL_DISK, name="logsvc-disk")
    server = LogServer(env, disk, small_testbed())
    server.format()
    env.run(until=env.process(server.boot()))
    return server


def test_create_append_read(env):
    logs = make_log_server(env)
    cap = run_process(env, logs.create_log())
    assert run_process(env, logs.append(cap, b"line 1")) == 0
    assert run_process(env, logs.append(cap, b"line 2")) == 1
    assert run_process(env, logs.read(cap)) == [b"line 1", b"line 2"]
    assert run_process(env, logs.length(cap)) == 2


def test_concurrent_creates_get_distinct_logs(env):
    """Regression: create_log chose its slot before its disk writes but
    claimed it after them, so two concurrent creates both got object 1
    and the first capability then failed its check."""
    logs = make_log_server(env)
    made = [env.process(logs.create_log()) for _ in range(2)]
    env.run(until=env.all_of(made))
    first, second = (proc.value for proc in made)
    assert first.object != second.object
    for cap, record in ((first, b"first"), (second, b"second")):
        run_process(env, logs.append(cap, record))
        assert run_process(env, logs.read(cap)) == [record]


def test_concurrent_appends_that_link_a_block_both_survive_reboot(env):
    """Regression: two local appends to a full tail both linked a new
    block. Both returned sequence numbers and RAM held both records, but
    the disk chain kept one of them and leaked the other's block."""
    logs = make_log_server(env)
    cap = run_process(env, logs.create_log())
    run_process(env, logs.append(cap, bytes(logs.max_record)))  # tail full
    made = [env.process(logs.append(cap, record))
            for record in (b"one", b"two")]
    env.run(until=env.all_of(made))
    assert [proc.value for proc in made] == [1, 2]
    free = logs.status()["free_blocks"]
    reborn = LogServer(env, logs.disk, small_testbed())
    env.run(until=env.process(reborn.boot()))
    assert run_process(env, reborn.read(cap, from_seq=1)) == [b"one", b"two"]
    assert reborn.status()["free_blocks"] == free


def test_a_failed_create_leaves_no_log(env):
    logs = make_log_server(env)
    logs.disk.fail()
    with pytest.raises(DiskIOError):
        run_process(env, logs.create_log())
    assert logs.status()["logs"] == 0


def test_a_failed_append_publishes_nothing(env):
    """Regression: append put the record in RAM, numbered it and counted
    its bytes before the tail write yielded. When the write failed, READ
    still served the record, and the next append's tail write made the
    unacknowledged record durable under the next sequence number."""
    logs = make_log_server(env)
    cap = run_process(env, logs.create_log())
    assert run_process(env, logs.append(cap, b"one")) == 0
    disk = logs.disk
    disk.mark_flaky(0, disk.total_blocks)
    with pytest.raises(DiskIOError):
        run_process(env, logs.append(cap, b"two"))
    disk.clear_flaky(0, disk.total_blocks)
    assert run_process(env, logs.read(cap)) == [b"one"]
    assert run_process(env, logs.length(cap)) == 1
    assert run_process(env, logs.append(cap, b"three")) == 1
    reborn = LogServer(env, disk, small_testbed())
    env.run(until=env.process(reborn.boot()))
    assert run_process(env, reborn.read(cap)) == [b"one", b"three"]


def test_negative_limit_rejected_on_both_planes(env):
    rpc = RpcTransport(env, Ethernet(env, EthernetProfile()), CpuProfile())
    logs = LogServer(env, VirtualDisk(env, SMALL_DISK, name="logsvc-disk"),
                     small_testbed(), transport=rpc)
    logs.format()
    run_process(env, logs.boot())
    cap = run_process(env, logs.create_log())
    for record in (b"a", b"b", b"c"):
        run_process(env, logs.append(cap, record))
    with pytest.raises(BadRequestError):
        run_process(env, logs.read(cap, 0, -1))
    refused = run_process(env, rpc.trans(logs.port, RpcRequest(
        opcode=LOG_OPCODES["READ"], cap=cap, args=(0, -1))))
    assert refused.status == Status.BAD_REQUEST
    reply = run_process(env, rpc.trans(logs.port, RpcRequest(
        opcode=LOG_OPCODES["READ"], cap=cap, args=(1, 0))))
    assert reply.ok and reply.args == (0,)


def test_read_from_sequence(env):
    logs = make_log_server(env)
    cap = run_process(env, logs.create_log())
    for i in range(5):
        run_process(env, logs.append(cap, f"r{i}".encode()))
    assert run_process(env, logs.read(cap, from_seq=3)) == [b"r3", b"r4"]
    assert run_process(env, logs.read(cap, from_seq=1, limit=2)) == [b"r1", b"r2"]


def test_append_cost_independent_of_length(env):
    """The whole point: appending to a long log costs no more than
    appending to a short one (amortized over block boundaries)."""
    logs = make_log_server(env)
    cap = run_process(env, logs.create_log())

    def timed_append():
        t0 = env.now
        run_process(env, logs.append(cap, b"x" * 50))
        return env.now - t0

    early = sum(timed_append() for _ in range(20)) / 20
    for _ in range(400):
        run_process(env, logs.append(cap, b"x" * 50))
    late = sum(timed_append() for _ in range(20)) / 20
    assert late < 2 * early


def test_records_spanning_blocks(env):
    """Fill several blocks and verify the chain decodes correctly."""
    logs = make_log_server(env)
    cap = run_process(env, logs.create_log())
    records = [bytes([i % 256]) * 100 for i in range(30)]  # > 1 block
    for record in records:
        run_process(env, logs.append(cap, record))
    assert run_process(env, logs.read(cap)) == records


def test_record_size_limit(env):
    logs = make_log_server(env)
    cap = run_process(env, logs.create_log())
    run_process(env, logs.append(cap, bytes(logs.max_record)))  # exactly fits
    with pytest.raises(BadRequestError):
        run_process(env, logs.append(cap, bytes(logs.max_record + 1)))


def test_rights_enforced(env):
    logs = make_log_server(env)
    owner = run_process(env, logs.create_log())
    reader = restrict(owner, RIGHT_READ)
    with pytest.raises(RightsError):
        run_process(env, logs.append(reader, b"nope"))
    appender = restrict(owner, RIGHT_CREATE)
    run_process(env, logs.append(restrict(owner, RIGHT_CREATE | RIGHT_READ), b"ok"))
    with pytest.raises(RightsError):
        run_process(env, logs.read(appender))


def test_unknown_log_rejected(env):
    logs = make_log_server(env)
    bogus = Capability(port=logs.port, object=5, rights=0xFF, check=1)
    with pytest.raises(NotFoundError):
        run_process(env, logs.read(bogus))


def test_log_survives_reboot(env):
    logs = make_log_server(env)
    cap = run_process(env, logs.create_log())
    records = [f"persistent {i}".encode() for i in range(40)]
    for record in records:
        run_process(env, logs.append(cap, record))
    reborn = LogServer(env, logs.disk, small_testbed())
    count = env.run(until=env.process(reborn.boot()))
    assert count == 1
    cap2 = Capability(port=reborn.port, object=cap.object,
                      rights=cap.rights, check=cap.check)
    assert run_process(env, reborn.read(cap2)) == records
    # And appending continues where it left off.
    assert run_process(env, reborn.append(cap2, b"after reboot")) == 40


def test_multiple_logs_isolated(env):
    logs = make_log_server(env)
    a = run_process(env, logs.create_log())
    b = run_process(env, logs.create_log())
    run_process(env, logs.append(a, b"for a"))
    run_process(env, logs.append(b, b"for b"))
    assert run_process(env, logs.read(a)) == [b"for a"]
    assert run_process(env, logs.read(b)) == [b"for b"]


def test_log_table_exhaustion(env):
    logs = make_log_server(env)
    for _ in range(MAX_LOGS):
        run_process(env, logs.create_log())
    with pytest.raises(BadRequestError):
        run_process(env, logs.create_log())
