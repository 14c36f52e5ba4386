"""A9 — client caching of immutable files lifts the scalability ceiling.

§5: "Whole file transfer minimizes the load on the file server and on
the network, allowing the service to be used on a larger scale" and
"Client caching of immutable files is straightforward."

A5 showed the single-threaded server saturating around 170 reads/s.
Here each client gets a :class:`CachingBulletClient`: once a client has
a file, re-reads cost **nothing** — no RPC, no server time — and are
trivially consistent because the file can never change. Aggregate
throughput then scales with the client count instead of the server.
"""

from repro.bench import closed_loop, make_rig
from repro.client import CachingBulletClient
from repro.sim import SeededStream, run_process
from repro.units import KB

from conftest import save_result

CLIENTS = [1, 4, 16]
HOT_FILES = 12
FILE_SIZE = 4 * KB
DURATION = 10.0


def run_with(caching: bool):
    results = {}
    for n in CLIENTS:
        rig = make_rig(with_nfs=False, background_load=False)
        env = rig.env
        caps = [run_process(env, rig.bullet_client.create(bytes(FILE_SIZE), 1))
                for _ in range(HOT_FILES)]
        completed = [0]

        def client_loop(index):
            stub = rig.bullet_client
            if caching:
                stub = CachingBulletClient(rig.bullet_client,
                                           capacity_bytes=HOT_FILES * FILE_SIZE)
            stream = SeededStream(index, "picks")
            while True:
                cap = caps[stream.zipf_index(HOT_FILES)]
                yield env.process(stub.read(cap))
                completed[0] += 1
                # A little client-side compute between reads, so a cache
                # hit loop does not spin in zero simulated time.
                yield env.timeout(2e-3)

        window = closed_loop(env, [client_loop(i) for i in range(n)],
                             window=DURATION)
        results[n] = completed[0] / window
    return results


def test_client_caching_scalability():
    uncached, cached = run_with(caching=False), run_with(caching=True)
    lines = ["A9: aggregate read throughput, with and without the",
             "immutable-file client cache (hot set of 12 x 4 KB files)",
             "=" * 60,
             f"{'clients':>8} {'no cache (ops/s)':>18} {'client cache (ops/s)':>22}"]
    for n in CLIENTS:
        lines.append(f"{n:>8} {uncached[n]:>18.1f} {cached[n]:>22.1f}")
    save_result("client_caching", "\n".join(lines))

    # Without caching the server saturates; with caching throughput
    # keeps scaling with clients (hits are free and always consistent).
    assert cached[16] > 3 * uncached[16]
    assert cached[16] > 3 * cached[1]
    # At a single client the two are comparable once warm (the cache
    # can only help).
    assert cached[1] >= uncached[1] * 0.9
