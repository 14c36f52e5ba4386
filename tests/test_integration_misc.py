"""Cross-cutting integration tests: gateways under packet loss, the
module entry point, mirror raw plane, and status reporting."""

import pytest
from dataclasses import replace

from repro.client import BulletClient
from repro.disk import MirroredDiskSet, VirtualDisk
from repro.net import (
    Ethernet,
    RpcTransport,
    WideAreaProfile,
    connect_sites,
)
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, SeededStream, run_process
from repro.units import KB

from conftest import SMALL_DISK, make_bullet


def test_gateway_rpc_survives_lossy_local_segments(env):
    """Cross-site RPC where both sites' Ethernets drop packets: the
    retransmission machinery composes with forwarding."""
    lossy = replace(EthernetProfile(), loss_probability=0.15)
    eth_a = Ethernet(env, lossy, stream=SeededStream(1, "a"))
    rpc_a = RpcTransport(env, eth_a, CpuProfile())
    rpc_a.retransmit_interval = 0.05
    eth_b = Ethernet(env, lossy, stream=SeededStream(2, "b"))
    rpc_b = RpcTransport(env, eth_b, CpuProfile())
    rpc_b.retransmit_interval = 0.05
    connect_sites(env, rpc_a, rpc_b)
    bullet = make_bullet(env, transport=rpc_b)
    client = BulletClient(env, rpc_a, bullet.port)

    def scenario():
        caps = []
        for i in range(8):
            caps.append((yield from client.create(bytes([i]) * 500, 1)))
        for i, cap in enumerate(caps):
            assert (yield from client.read(cap)) == bytes([i]) * 500
        return len(caps)

    assert run_process(env, scenario()) == 8
    assert bullet.stats.creates.value == 8  # at-most-once held across the hop
    assert eth_a.stats.lost_packets.value + eth_b.stats.lost_packets.value > 0


def test_main_module_quick_run(capsys):
    """``python -m repro`` produces the tables and claim checks."""
    from repro.__main__ import main

    assert main([]) == 0
    out = capsys.readouterr().out
    assert "Bullet file server — Delay (msec)" in out
    assert "SUN NFS file server — Bandwidth (Kbytes/sec)" in out
    assert "C1 read speedup" in out
    assert "1 Mbyte" in out


def test_mirror_raw_plane(env):
    disks = [VirtualDisk(env, SMALL_DISK, name=f"m{i}") for i in (0, 1)]
    mirror = MirroredDiskSet(env, disks)
    mirror.write_raw(5, b"both replicas")
    assert disks[0].read_raw(5, 1)[:13] == b"both replicas"
    assert disks[1].read_raw(5, 1)[:13] == b"both replicas"
    assert mirror.read_raw(5, 1)[:13] == b"both replicas"
    assert env.now == 0.0  # raw plane is free


def test_status_reports_fragmentation_and_cache(env, bullet):
    caps = [run_process(env, bullet.create(bytes(8 * KB), 1)) for _ in range(4)]
    run_process(env, bullet.delete(caps[1]))
    run_process(env, bullet.read(caps[0]))
    status = bullet.status()
    assert status["files"] == 3
    assert 0.0 <= status["disk_fragmentation"] < 1.0
    assert status["cache_used_bytes"] == 3 * 8 * KB
    assert 0.0 < status["cache_hit_rate"] <= 1.0
    assert status["disk_largest_hole"] > 0


def test_rpc_wire_sizes_scale_with_payload(env):
    from repro.net import RpcReply, RpcRequest
    from repro.capability import Capability

    small = RpcRequest(opcode=1)
    cap = Capability(port=1, object=1, rights=1, check=1)
    with_cap = RpcRequest(opcode=1, cap=cap)
    with_body = RpcRequest(opcode=1, body=bytes(1000))
    assert with_cap.wire_size == small.wire_size + 16
    assert with_body.wire_size == small.wire_size + 1000
    reply = RpcReply(body=bytes(500), caps=(cap, cap))
    assert reply.wire_size > 500 + 32


def test_paper_sizes_match_row_pattern():
    """The figure column follows the OCR's visible pattern: bytes,
    bytes, bytes, Kbytes, Kbytes, Mbyte."""
    from repro.bench import PAPER_SIZES
    from repro.units import fmt_size

    labels = [fmt_size(s) for s in PAPER_SIZES]
    assert labels[0] == "1 byte"
    assert all("bytes" in lab for lab in labels[1:3])
    assert all("Kbytes" in lab for lab in labels[3:5])
    assert labels[5] == "1 Mbyte"
