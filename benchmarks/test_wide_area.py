"""A8 — geographic scalability: reads across a wide-area gateway.

§2.1: Amoeba ran "in four different countries"; gateways make remote
servers transparently reachable, and whole-file transfer keeps the
number of wide-area round trips at one per file — the property that
made the design usable over 1980s leased lines.

We sweep the link's one-way latency and measure the remote-read penalty
for a small and a large file.
"""

from repro.client import BulletClient
from repro.net import Ethernet, RpcTransport, WideAreaProfile, connect_sites
from repro.profiles import CpuProfile, DEFAULT_TESTBED, EthernetProfile
from repro.core import BulletServer
from repro.disk import MirroredDiskSet, VirtualDisk
from repro.sim import Environment, run_process
from repro.units import KB, to_msec

from conftest import save_result

LATENCIES_MS = [5, 15, 50, 150]
SIZES = [1 * KB, 64 * KB]


def one_latency(latency_ms):
    env = Environment()
    eth_a = Ethernet(env, EthernetProfile())
    rpc_a = RpcTransport(env, eth_a, CpuProfile())
    eth_b = Ethernet(env, EthernetProfile())
    rpc_b = RpcTransport(env, eth_b, CpuProfile())
    connect_sites(env, rpc_a, rpc_b,
                  WideAreaProfile(propagation_delay=latency_ms / 1000.0))
    disks = [VirtualDisk(env, DEFAULT_TESTBED.disk, name=f"d{i}")
             for i in (0, 1)]
    server = BulletServer(env, MirroredDiskSet(env, disks), DEFAULT_TESTBED,
                          transport=rpc_b)
    server.format()
    run_process(env, server.boot())
    local = BulletClient(env, rpc_b, server.port)
    remote = BulletClient(env, rpc_a, server.port)

    results = {}
    for size in SIZES:
        cap = run_process(env, local.create(bytes(size), 2))
        t0 = env.now
        run_process(env, local.read(cap))
        local_delay = env.now - t0
        t0 = env.now
        run_process(env, remote.read(cap))
        remote_delay = env.now - t0
        results[size] = (local_delay, remote_delay)
    return results


def test_wide_area_read_penalty():
    sweep = {lat: one_latency(lat) for lat in LATENCIES_MS}
    lines = ["A8: whole-file read across a wide-area gateway",
             "=" * 70,
             f"{'one-way (ms)':>13} {'size':>8} {'local (ms)':>12} "
             f"{'remote (ms)':>12} {'penalty (ms)':>13}"]
    for lat, by_size in sweep.items():
        for size, (local_delay, remote_delay) in by_size.items():
            lines.append(
                f"{lat:>13} {size:>8} {to_msec(local_delay):>12.1f} "
                f"{to_msec(remote_delay):>12.1f} "
                f"{to_msec(remote_delay - local_delay):>13.1f}"
            )
    save_result("wide_area", "\n".join(lines))

    for lat, by_size in sweep.items():
        for size, (local_delay, remote_delay) in by_size.items():
            # The remote penalty includes at least two one-way hops.
            assert remote_delay >= local_delay + 2 * lat / 1000.0
    # Whole-file transfer: the *extra* cost of distance is (almost)
    # size-independent — one wide-area exchange per file, so the penalty
    # for 64 KB is dominated by the same 2 hops plus serialization.
    for lat, by_size in sweep.items():
        small_penalty = by_size[1 * KB][1] - by_size[1 * KB][0]
        large_penalty = by_size[64 * KB][1] - by_size[64 * KB][0]
        serialization = (64 * KB * 8) / WideAreaProfile().bandwidth_bits
        assert large_penalty < small_penalty + serialization + 0.1
