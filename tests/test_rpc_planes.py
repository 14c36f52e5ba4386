"""Integration tests for the directory and log servers' RPC planes, and
a full three-server composition over one simulated network."""

import pytest

from repro.capability import Capability
from repro.client import BulletClient, LocalBulletStub
from repro.directory import DIR_OPCODES, DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import ExistsError, NotFoundError, error_for_status, Status
from repro.logsvc import LOG_OPCODES, LogServer
from repro.net import Ethernet, RpcRequest, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import run_process
from repro.units import KB

from conftest import SMALL_DISK, make_bullet, small_testbed


@pytest.fixture
def network(env):
    eth = Ethernet(env, EthernetProfile())
    return RpcTransport(env, eth, CpuProfile())


def dir_call(env, rpc, port, opcode, cap=None, args=(), body=b""):
    reply = run_process(env, rpc.trans(
        port, RpcRequest(opcode=DIR_OPCODES[opcode], cap=cap, args=args,
                         body=body)))
    if not reply.ok:
        raise error_for_status(reply.status, reply.message)
    return reply


def test_directory_rpc_plane(env, network):
    bullet = make_bullet(env, transport=network)
    dir_disk = VirtualDisk(env, SMALL_DISK, name="dirdisk")
    dirs = DirectoryServer(env, dir_disk, LocalBulletStub(bullet),
                           small_testbed(), transport=network)
    dirs.format()
    run_process(env, dirs.boot())
    bullet_client = BulletClient(env, network, bullet.port)

    root = dir_call(env, network, dirs.port, "CREATE_DIR").caps[0]
    file_cap = run_process(env, bullet_client.create(b"via rpc", 1))
    dir_call(env, network, dirs.port, "APPEND", cap=root, args=("f",),
             body=file_cap.pack())
    found = dir_call(env, network, dirs.port, "LOOKUP", cap=root,
                     args=("f",)).caps[0]
    assert found == file_cap
    names = dir_call(env, network, dirs.port, "LIST", cap=root).args
    assert list(names) == ["f"]
    # Duplicate append surfaces as ExistsError across the wire.
    with pytest.raises(ExistsError):
        dir_call(env, network, dirs.port, "APPEND", cap=root, args=("f",),
                 body=file_cap.pack())
    # REPLACE and REMOVE round-trip capabilities.
    v2 = run_process(env, bullet_client.create(b"version 2", 1))
    old = dir_call(env, network, dirs.port, "REPLACE", cap=root,
                   args=("f",), body=v2.pack()).caps[0]
    assert old == file_cap
    removed = dir_call(env, network, dirs.port, "REMOVE", cap=root,
                       args=("f",)).caps[0]
    assert removed == v2
    with pytest.raises(NotFoundError):
        dir_call(env, network, dirs.port, "LOOKUP", cap=root, args=("f",))


def test_directory_rpc_path_and_history(env, network):
    bullet = make_bullet(env, transport=network)
    dir_disk = VirtualDisk(env, SMALL_DISK, name="dirdisk")
    dirs = DirectoryServer(env, dir_disk, LocalBulletStub(bullet),
                           small_testbed(), transport=network)
    dirs.format()
    run_process(env, dirs.boot())
    bullet_client = BulletClient(env, network, bullet.port)

    root = dir_call(env, network, dirs.port, "CREATE_DIR").caps[0]
    sub = dir_call(env, network, dirs.port, "CREATE_DIR").caps[0]
    leaf = run_process(env, bullet_client.create(b"leaf", 1))
    dir_call(env, network, dirs.port, "APPEND", cap=root, args=("sub",),
             body=sub.pack())
    dir_call(env, network, dirs.port, "APPEND", cap=sub, args=("leaf",),
             body=leaf.pack())
    found = dir_call(env, network, dirs.port, "LOOKUP_PATH", cap=root,
                     args=("sub/leaf",)).caps[0]
    assert found == leaf
    history = dir_call(env, network, dirs.port, "HISTORY", cap=sub).caps
    assert len(history) == 2  # empty version + one append


def test_local_append_beside_an_rpc_append_keeps_both(env, network):
    """Regression: a local-plane APPEND raced the serve loop's RPC
    APPEND to the same directory and one of the two entries was lost."""
    bullet = make_bullet(env, transport=network)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dirdisk"),
                           LocalBulletStub(bullet), small_testbed(),
                           transport=network)
    dirs.format()
    run_process(env, dirs.boot())
    root = run_process(env, dirs.create_directory())
    local = run_process(env, bullet.create(b"local", 1))
    remote = run_process(env, bullet.create(b"remote", 1))
    over_rpc = env.process(network.trans(dirs.port, RpcRequest(
        opcode=DIR_OPCODES["APPEND"], cap=root, args=("rpc",),
        body=remote.pack())))
    env.run(until=env.all_of([
        over_rpc, env.process(dirs.append(root, "local", local))]))
    assert over_rpc.value.ok
    assert run_process(env, dirs.list_names(root)) == ["local", "rpc"]


def test_log_rpc_plane(env, network):
    disk = VirtualDisk(env, SMALL_DISK, name="logdisk")
    logs = LogServer(env, disk, small_testbed(), transport=network)
    logs.format()
    run_process(env, logs.boot())

    def call(opcode, cap=None, args=(), body=b""):
        reply = run_process(env, network.trans(
            logs.port, RpcRequest(opcode=LOG_OPCODES[opcode], cap=cap,
                                  args=args, body=body)))
        if not reply.ok:
            raise error_for_status(reply.status, reply.message)
        return reply

    cap = call("CREATE").caps[0]
    assert call("APPEND", cap=cap, body=b"first").args[0] == 0
    assert call("APPEND", cap=cap, body=b"second").args[0] == 1
    assert call("LENGTH", cap=cap).args[0] == 2
    reply = call("READ", cap=cap, args=(0, 10))
    assert reply.args[0] == 2
    # Decode the packed record stream.
    body, records = reply.body, []
    offset = 0
    while offset < len(body):
        n = int.from_bytes(body[offset:offset + 2], "big")
        offset += 2
        records.append(body[offset:offset + n])
        offset += n
    assert records == [b"first", b"second"]


def test_three_servers_share_one_network(env, network):
    """Bullet + directory + log servers all serving on one Ethernet,
    with interleaved clients — the Amoeba 'specialized servers' layout."""
    bullet = make_bullet(env, transport=network)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed(),
                           transport=network)
    dirs.format()
    run_process(env, dirs.boot())
    logs = LogServer(env, VirtualDisk(env, SMALL_DISK, name="ld"),
                     small_testbed(), transport=network)
    logs.format()
    run_process(env, logs.boot())
    bullet_client = BulletClient(env, network, bullet.port)

    results = {}

    def bullet_user():
        cap = yield from bullet_client.create(bytes(16 * KB), 2)
        results["bullet"] = len((yield from bullet_client.read(cap)))

    def dir_user():
        reply = yield env.process(network.trans(
            dirs.port, RpcRequest(opcode=DIR_OPCODES["CREATE_DIR"])))
        results["dir"] = reply.ok

    def log_user():
        reply = yield env.process(network.trans(
            logs.port, RpcRequest(opcode=LOG_OPCODES["CREATE"])))
        cap = reply.caps[0]
        reply = yield env.process(network.trans(
            logs.port, RpcRequest(opcode=LOG_OPCODES["APPEND"], cap=cap,
                                  body=b"interleaved")))
        results["log"] = reply.args[0]

    env.process(bullet_user())
    env.process(dir_user())
    env.process(log_user())
    env.run()
    assert results == {"bullet": 16 * KB, "dir": True, "log": 0}
