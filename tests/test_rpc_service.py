"""The shared RPC service plane (repro.net.RpcService + RpcStub): what
all four servers and all three client stubs must do identically —
crash semantics, spans, per-op accounting, retry counters."""

import pytest

from repro.client import (BulletClient, DirectoryClient, LocalBulletStub,
                          RetryPolicy)
from repro.core import OPCODES
from repro.directory import DIR_OPCODES, DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import NotFoundError, ServerDownError
from repro.logsvc import LOG_OPCODES, LogServer
from repro.net import Ethernet, RpcRequest, RpcTransport
from repro.nfs import NFS_OPCODES, NfsClient, NfsServer
from repro.obs import pair_spans
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Tracer, run_process

from conftest import SMALL_DISK, make_bullet, small_testbed


class Site:
    """All four servers on one Ethernet, one transport, one tracer."""

    def __init__(self, env, traced=False):
        self.env = env
        self.tracer = Tracer(env) if traced else None
        self.eth = Ethernet(env, EthernetProfile())
        self.rpc = RpcTransport(env, self.eth, CpuProfile(),
                                tracer=self.tracer)
        testbed = small_testbed()
        self.bullet = make_bullet(env, transport=self.rpc, tracer=self.tracer)
        self.directory = DirectoryServer(
            env, VirtualDisk(env, SMALL_DISK, name="dd"),
            LocalBulletStub(self.bullet), testbed, transport=self.rpc,
            max_directories=8, tracer=self.tracer)
        self.nfs = NfsServer(env, VirtualDisk(env, SMALL_DISK, name="nd"),
                             testbed, transport=self.rpc, ninodes=64,
                             tracer=self.tracer)
        self.logsvc = LogServer(env, VirtualDisk(env, SMALL_DISK, name="ld"),
                                testbed, transport=self.rpc,
                                tracer=self.tracer)
        for server in (self.directory, self.nfs, self.logsvc):
            server.format()
            run_process(env, server.boot())


#: One single-RPC request per server, needing no prior state.
FIRST_REQUEST = {
    "bullet": lambda: RpcRequest(opcode=OPCODES["CREATE"], body=b"x" * 64),
    "directory": lambda: RpcRequest(opcode=DIR_OPCODES["CREATE_DIR"]),
    "nfs": lambda: RpcRequest(opcode=NFS_OPCODES["GETATTR"], args=((1, 1),)),
    "logsvc": lambda: RpcRequest(opcode=LOG_OPCODES["CREATE"]),
}


@pytest.mark.parametrize("which", sorted(FIRST_REQUEST))
def test_crash_mid_reply_fails_the_client_at_the_crash_instant(env, which):
    """A server that dies 1 µs into transmitting a reply sends nothing
    more: the client sees ServerDownError stamped at the crash, never an
    OK reply after it, and the shared medium is not left held."""
    site = Site(env)
    server = getattr(site, which)
    sends = []
    real_send = site.eth.send_fragments

    def crasher():
        yield env.timeout(1e-6)
        server.crash()
        sends.append(("crash", env.now))

    def spy(nbytes, indices=None):
        sends.append(("send", env.now))
        if len(sends) == 2:  # 1 = the request, 2 = the reply
            env.process(crasher())
        return real_send(nbytes, indices)

    site.eth.send_fragments = spy

    def client():
        try:
            reply = yield from site.rpc.trans(server.port,
                                              FIRST_REQUEST[which]())
        except ServerDownError:
            return "down", env.now
        return reply.status, env.now

    outcome, when = run_process(env, client())
    env.run()  # let anything the dead server still owns play out
    assert [kind for kind, _t in sends] == ["send", "send", "crash"]
    crashed_at = sends[2][1]
    assert crashed_at == sends[1][1] + 1e-6
    assert (outcome, when) == ("down", crashed_at)
    assert site.eth.idle and site.eth.medium_queue_length == 0


def test_every_server_emits_the_same_span_tree(env):
    """One rpc.trans holds exactly one rpc.queue, server.op and
    server.net, whichever server answered — and every span closes."""
    site = Site(env, traced=True)
    bullet = BulletClient(env, site.rpc, site.bullet.port)
    names = DirectoryClient(env, site.rpc, default_port=site.directory.port)
    nfs = NfsClient(env, small_testbed(), rpc=site.rpc,
                    server_port=site.nfs.port)

    def traffic():
        cap = yield from bullet.create(b"payload", 1)
        yield from bullet.read(cap)
        root = yield from names.create_directory()
        yield from names.append(root, "f", cap)
        yield from names.lookup(root, "f")
        fd = yield from nfs.creat("/f")
        yield from nfs.write(fd, b"block")
        yield from nfs.close(fd)
        yield from site.rpc.trans(
            site.logsvc.port, RpcRequest(opcode=LOG_OPCODES["CREATE"]))

    site.tracer.clear()
    run_process(env, traffic())
    spans = pair_spans(site.tracer.records)  # no allow_open: all closed
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    servers = {dict(s.begin_fields)["server"] for s in by_name["server.op"]}
    assert servers == {"bullet", "directory", "nfs", "logsvc"}
    for trans in by_name["rpc.trans"]:
        for part in ("rpc.queue", "server.op", "server.net"):
            inside = [s for s in by_name[part]
                      if trans.begin <= s.begin and s.end <= trans.end]
            assert len(inside) == 1, (part, trans)
    for part in ("rpc.queue", "server.op", "server.net"):
        assert len(by_name[part]) == len(by_name["rpc.trans"])


def test_directory_and_log_servers_account_ops_and_error_replies(env):
    """Both export the per-op histogram and the error-reply counter
    (into the transport's registry: they take no registry of their
    own), like Bullet and NFS always did."""
    site = Site(env)
    names = DirectoryClient(env, site.rpc, default_port=site.directory.port)
    root = run_process(env, names.create_directory())
    with pytest.raises(NotFoundError):
        run_process(env, names.lookup(root, "missing"))
    reply = run_process(env, site.rpc.trans(
        site.logsvc.port, RpcRequest(opcode=LOG_OPCODES["LENGTH"],
                                     cap=root)))
    assert not reply.ok
    reg = site.rpc.metrics
    assert reg.find("repro_server_op_seconds", server="directory",
                    op="CREATE_DIR").count == 1
    assert reg.find("repro_server_op_seconds", server="directory",
                    op="LOOKUP").count == 1
    assert reg.find("repro_server_op_seconds", server="logsvc",
                    op="LENGTH").count == 1
    assert reg.value("repro_server_error_replies_total",
                     server="directory", status="NOT_FOUND") == 1
    assert reg.value("repro_server_error_replies_total",
                     server="logsvc", status="NOT_FOUND") == 1


def test_directory_client_retries_count_in_the_transports_registry(env):
    site = Site(env)
    names = DirectoryClient(
        env, site.rpc, default_port=site.directory.port, timeout=0.1,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0))
    root = run_process(env, names.create_directory())
    site.directory.crash()
    with pytest.raises(ServerDownError):
        run_process(env, names.lookup(root, "f"))
    reg = site.rpc.metrics
    assert reg.value("repro_client_retries_total",
                     client="directory-client") == 2
    assert reg.value("repro_client_retry_gave_up_total",
                     client="directory-client") == 1
