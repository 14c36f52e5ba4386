"""A5 — quantitative scalability: throughput vs concurrent clients.

§2: "Scalability involves ... quantitative scalability — there may be
thousands of processors accessing files." The contended resources are
the shared Ethernet and the single-threaded server; aggregate
throughput should rise with offered load and then saturate (not
collapse).
"""

from repro.bench import closed_loop, make_rig
from repro.sim import run_process
from repro.units import KB

from conftest import save_result

CLIENTS = [1, 2, 4, 8, 16]
FILE_SIZE = 4 * KB
DURATION = 10.0


def throughput(n):
    """Sustained reads/sec of ``n`` clients, each looping whole-file
    reads of a private cached file."""
    rig = make_rig(with_nfs=False, background_load=False)
    env, client = rig.env, rig.bullet_client
    caps = [run_process(env, client.create(bytes(FILE_SIZE), 1))
            for _ in range(n)]
    completed = [0]

    def client_loop(cap):
        while True:
            yield from client.read(cap)
            completed[0] += 1

    window = closed_loop(env, [client_loop(cap) for cap in caps],
                         window=DURATION)
    return completed[0] / window


def test_scalability_throughput_vs_clients():
    results = {n: throughput(n) for n in CLIENTS}
    lines = ["A5: aggregate Bullet read throughput vs concurrent clients",
             "=" * 60,
             f"{'clients':>8} {'reads/sec':>12} {'per-client':>12}"]
    for n, ops in results.items():
        lines.append(f"{n:>8} {ops:>12.1f} {ops / n:>12.1f}")
    save_result("scalability_clients", "\n".join(lines))

    # A second client fills the idle client-side think time, raising
    # aggregate throughput; the single-threaded server (it stays busy
    # through each reply transmission, §3) saturates soon after.
    assert results[2] > 1.1 * results[1]
    # Saturation is stable: offered load x8 must not collapse throughput.
    assert results[16] > 0.9 * results[2]
    # Per-client rate degrades gracefully under saturation.
    assert results[16] / 16 < results[1]
