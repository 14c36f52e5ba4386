"""Tests for wide-area gateways and the cross-site global name space."""

import pytest

from repro.client import BulletClient, DirectoryClient, LocalBulletStub
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import BadRequestError, NotFoundError, ServerDownError
from repro.net import (
    Ethernet,
    RpcRequest,
    RpcTransport,
    WideAreaLink,
    WideAreaProfile,
    connect_sites,
)
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, run_process
from repro.units import KB

from conftest import SMALL_DISK, make_bullet, small_testbed


def make_site(env, tag):
    """One site: its own Ethernet segment + RPC transport."""
    eth = Ethernet(env, EthernetProfile(name=f"eth-{tag}"))
    return eth, RpcTransport(env, eth, CpuProfile())


def make_two_sites(env, profile=WideAreaProfile()):
    _eth_a, rpc_a = make_site(env, "a")
    _eth_b, rpc_b = make_site(env, "b")
    link = connect_sites(env, rpc_a, rpc_b, profile)
    return rpc_a, rpc_b, link


def add_directory(env, rpc, bullet, name):
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name=f"{name}-dd"),
                           LocalBulletStub(bullet), small_testbed(),
                           name=name, transport=rpc)
    dirs.format()
    run_process(env, dirs.boot())
    return dirs


# ------------------------------------------------------------ raw link


def test_link_charges_serialization_and_propagation(env):
    link = WideAreaLink(env, WideAreaProfile(bandwidth_bits=1e6,
                                             propagation_delay=0.05,
                                             per_packet_overhead=0.0))

    def proc():
        yield env.process(link.transfer(12500, 0))  # 0.1 s serialization
        return env.now

    elapsed = run_process(env, proc())
    assert elapsed == pytest.approx(0.15)
    assert link.bytes_carried == 12500


def test_link_directions_independent(env):
    """Full duplex: opposite directions do not serialize each other."""
    link = WideAreaLink(env, WideAreaProfile(bandwidth_bits=1e6,
                                             propagation_delay=0.0,
                                             per_packet_overhead=0.0))
    done = []

    def sender(direction):
        yield env.process(link.transfer(125000, direction))  # 1 s each
        done.append(env.now)

    env.process(sender(0))
    env.process(sender(1))
    env.run()
    assert max(done) == pytest.approx(1.0)


def test_link_same_direction_serializes(env):
    link = WideAreaLink(env, WideAreaProfile(bandwidth_bits=1e6,
                                             propagation_delay=0.0,
                                             per_packet_overhead=0.0))
    done = []

    def sender():
        yield env.process(link.transfer(125000, 0))
        done.append(env.now)

    env.process(sender())
    env.process(sender())
    env.run()
    assert max(done) == pytest.approx(2.0)


# -------------------------------------------------------- forwarded RPC


def test_remote_bullet_access_through_gateway(env):
    rpc_a, rpc_b, link = make_two_sites(env)
    bullet_b = make_bullet(env, transport=rpc_b)  # server lives at site B
    client_at_a = BulletClient(env, rpc_a, bullet_b.port)

    cap = run_process(env, client_at_a.create(b"stored across the border", 2))
    assert run_process(env, client_at_a.read(cap)) == b"stored across the border"
    assert link.bytes_carried > 0


def test_gateway_latency_visible(env):
    """The same read is slower from the remote site by at least two
    one-way propagation delays."""
    rpc_a, rpc_b, _link = make_two_sites(
        env, WideAreaProfile(propagation_delay=0.05))
    bullet_b = make_bullet(env, transport=rpc_b)
    remote_client = BulletClient(env, rpc_a, bullet_b.port)
    local_client = BulletClient(env, rpc_b, bullet_b.port)

    cap = run_process(env, local_client.create(b"x" * 100, 1))

    t0 = env.now
    run_process(env, local_client.read(cap))
    local_delay = env.now - t0

    t0 = env.now
    run_process(env, remote_client.read(cap))
    remote_delay = env.now - t0
    assert remote_delay > local_delay + 0.1  # 2 x 50 ms propagation


def test_unknown_port_still_fails_with_gateways(env):
    rpc_a, _rpc_b, _link = make_two_sites(env)

    def proc():
        try:
            yield env.process(rpc_a.trans(0xDEAD, RpcRequest(opcode=1),
                                          timeout=0.2))
        except ServerDownError:
            return "down"

    assert run_process(env, proc()) == "down"


def test_local_port_preferred_over_gateway(env):
    """A port served locally is never forwarded."""
    rpc_a, rpc_b, link = make_two_sites(env)
    bullet_a = make_bullet(env, transport=rpc_a)
    client = BulletClient(env, rpc_a, bullet_a.port)
    cap = run_process(env, client.create(b"local", 1))
    run_process(env, client.read(cap))
    assert link.bytes_carried == 0


# ------------------------------------------------- global name space


def test_single_global_namespace_across_sites(env):
    """§2.1: 'one single large file service that crosses international
    borders' — a path rooted at site A resolves through a directory at
    site B to a file stored at site B."""
    rpc_a, rpc_b, _link = make_two_sites(env)
    bullet_a = make_bullet(env, transport=rpc_a)
    bullet_b = make_bullet(env, transport=rpc_b)
    dirs_a = add_directory(env, rpc_a, bullet_a, "dir-amsterdam")
    dirs_b = add_directory(env, rpc_b, bullet_b, "dir-berlin")

    client = DirectoryClient(env, rpc_a, default_port=dirs_a.port)
    bullet_client_b = BulletClient(env, rpc_a, bullet_b.port)  # via gateway

    root = run_process(env, client.create_directory())
    berlin_dir = run_process(env, client.create_directory(port=dirs_b.port))
    run_process(env, client.append(root, "berlin", berlin_dir))
    remote_file = run_process(env, bullet_client_b.create(b"guten tag", 1))
    run_process(env, client.append(berlin_dir, "greeting", remote_file))

    found = run_process(env, client.walk(root, "berlin/greeting"))
    assert found == remote_file
    # Read it from site A through the transparent route:
    data = run_process(env, BulletClient(env, rpc_a, found.port).read(found))
    assert data == b"guten tag"


def test_walk_dir_ports_guard(env):
    rpc_a, rpc_b, _link = make_two_sites(env)
    bullet_a = make_bullet(env, transport=rpc_a)
    dirs_a = add_directory(env, rpc_a, bullet_a, "dir-a")
    client = DirectoryClient(env, rpc_a, default_port=dirs_a.port)
    bullet_client = BulletClient(env, rpc_a, bullet_a.port)

    root = run_process(env, client.create_directory())
    file_cap = run_process(env, bullet_client.create(b"not a dir", 1))
    run_process(env, client.append(root, "f", file_cap))
    # Descending through a file: its server refuses the directory opcode.
    with pytest.raises(BadRequestError):
        run_process(env, client.walk(root, "f/deeper"))


def test_directory_client_full_surface(env):
    rpc_a, _rpc_b, _link = make_two_sites(env)
    bullet = make_bullet(env, transport=rpc_a)
    dirs = add_directory(env, rpc_a, bullet, "dir-x")
    client = DirectoryClient(env, rpc_a, default_port=dirs.port)
    bullet_client = BulletClient(env, rpc_a, bullet.port)

    root = run_process(env, client.create_directory())
    v1 = run_process(env, bullet_client.create(b"v1", 1))
    v2 = run_process(env, bullet_client.create(b"v2", 1))
    run_process(env, client.append(root, "doc", v1))
    assert run_process(env, client.list_names(root)) == ["doc"]
    assert run_process(env, client.replace(root, "doc", v2)) == v1
    assert run_process(env, client.lookup(root, "doc")) == v2
    assert len(run_process(env, client.history(root))) == 3
    assert run_process(env, client.remove_entry(root, "doc")) == v2
    run_process(env, client.delete_directory(root))
    with pytest.raises(NotFoundError):  # the directory is really gone
        run_process(env, client.list_names(root))
