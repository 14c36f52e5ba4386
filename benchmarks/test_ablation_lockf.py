"""A10 — ablation: what lockf hid.

The paper disabled the Sun 3/50's client caching with lockf to measure
the *server*. This ablation turns that caching back on and shows:

1. warm NFS re-reads become fast (the measurement would have been
   meaningless, as the authors knew);
2. cold reads and all writes are unchanged — the architectural gap the
   paper measures is still there;
3. the consistency price: an NFS client cache can serve **stale** data
   inside its attribute-timeout window, which the Bullet/directory
   design structurally cannot (a capability names immutable bytes).
"""

from repro.bench import make_rig, timed
from repro.nfs import NfsClient
from repro.sim import run_process
from repro.units import KB, to_msec

from conftest import save_result

SIZE = 64 * KB


def measure(client, env, path, payload):
    def write():
        fd = yield from client.creat(path)
        yield from client.write(fd, payload)
        yield from client.close(fd)

    write_delay, _ = timed(env, write())

    def read():
        fd = yield from client.open(path)
        yield from client.lseek(fd, 0)
        data = yield from client.read(fd, len(payload))
        assert data == payload
        yield from client.close(fd)

    cold_delay, _ = timed(env, read())
    warm_delay, _ = timed(env, read())
    return write_delay, cold_delay, warm_delay


def test_ablation_lockf():
    rig = make_rig(with_bullet=False, nfs_churn=False,
                   background_load=False)
    env = rig.env
    lockf_client = rig.nfs_client  # caching off, as in the paper
    caching_client = NfsClient(env, rig.testbed, rpc=rig.rpc,
                               server_port=rig.nfs.port,
                               client_caching=True)
    payload = bytes(SIZE)
    lockf = measure(lockf_client, env, "/lockf.bin", payload)
    cached = measure(caching_client, env, "/cached.bin", payload)
    lines = ["A10: NFS with lockf (paper's setup) vs client caching on",
             "=" * 62,
             f"{'':>12} {'write (ms)':>12} {'cold read':>12} {'warm read':>12}"]
    for label, (w, c, warm) in (("lockf", lockf), ("caching", cached)):
        lines.append(f"{label:>12} {to_msec(w):>12.1f} {to_msec(c):>12.1f} "
                     f"{to_msec(warm):>12.1f}")
    lines.append("")
    lines.append("caching makes warm re-reads ~local, leaves cold reads and")
    lines.append("writes untouched — and buys a stale-read window NFS-style")
    lines.append("caching cannot avoid (see tests/test_nfs_client_cache.py).")
    save_result("ablation_lockf", "\n".join(lines))

    w_l, c_l, warm_l = lockf
    w_c, c_c, warm_c = cached
    # Warm reads collapse with caching...
    assert warm_c < warm_l / 5
    # ...while cold reads and writes are within noise of each other.
    assert 0.8 < c_c / c_l < 1.2
    assert 0.8 < w_c / w_l < 1.2
