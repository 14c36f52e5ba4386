#!/usr/bin/env python3
"""A parallel make over the Bullet server (the Amoeba processor pool).

§2.1: "The dynamically allocatable processors together form the
so-called processor pool. These processors may be allocated for
compiling ... we have implemented a parallel make."

Eight pool processors compile a project in parallel: each reads the
shared headers (hot, immutable — perfect for client caches) plus its own
source file, "compiles" (simulated CPU time), writes an object file, and
finally a linker reads every object file. The coordinator commits the
whole build output into the directory **atomically** with update_many —
an observer sees the old build or the new build, never a half-built mix.

Run:  python examples/parallel_make.py
"""

from repro import (
    DEFAULT_TESTBED,
    BulletClient,
    BulletServer,
    CachingBulletClient,
    DirectoryServer,
    Environment,
    Ethernet,
    LocalBulletStub,
    MirroredDiskSet,
    RpcTransport,
    VirtualDisk,
    WorkstationCache,
    run_process,
)
from repro.units import KB

N_WORKERS = 8
N_SOURCES = 16
COMPILE_SECONDS = 0.8


def main():
    env = Environment()
    ethernet = Ethernet(env, DEFAULT_TESTBED.ethernet)
    rpc = RpcTransport(env, ethernet, DEFAULT_TESTBED.cpu)
    disks = [VirtualDisk(env, DEFAULT_TESTBED.disk, name=f"d{i}") for i in (0, 1)]
    bullet = BulletServer(env, MirroredDiskSet(env, disks), DEFAULT_TESTBED,
                          transport=rpc)
    bullet.format()
    run_process(env, bullet.boot())
    dirs = DirectoryServer(env, VirtualDisk(env, DEFAULT_TESTBED.disk,
                                            name="dir-disk"),
                           LocalBulletStub(bullet), DEFAULT_TESTBED)
    dirs.format()
    run_process(env, dirs.boot())
    project = run_process(env, dirs.create_directory())

    # --- Sources and shared headers, stored as immutable files -----------
    seed_client = BulletClient(env, rpc, bullet.port)
    headers = [run_process(env, seed_client.create(
        f"/* header {i} */".encode() * 400, 2)) for i in range(4)]
    sources = [run_process(env, seed_client.create(
        f"int source_{i}(void) {{ return {i}; }}".encode() * 100, 2))
        for i in range(N_SOURCES)]
    print(f"project: {N_SOURCES} sources, {len(headers)} shared headers, "
          f"{N_WORKERS} pool processors\n")

    objects: dict = {}
    work_queue = list(enumerate(sources))

    def worker(worker_id):
        # Each pool processor has its own client cache: the headers are
        # immutable, so hits are always valid — no coherence traffic.
        me = CachingBulletClient(BulletClient(env, rpc, bullet.port),
                                 WorkstationCache(256 * KB))
        compiled = 0
        while work_queue:
            index, source_cap = work_queue.pop(0)
            for header in headers:          # includes (cached after 1st)
                yield from me.read(header)
            source = yield from me.read(source_cap)
            yield env.timeout(COMPILE_SECONDS)  # "cc -c"
            obj = b"OBJ:" + source[:64]
            objects[f"source_{index:02d}.o"] = (yield from me.create(obj, 2))
            compiled += 1
        print(f"  worker {worker_id}: compiled {compiled} units "
              f"(header cache hits: {me.hits})")

    t0 = env.now
    workers = [env.process(worker(w)) for w in range(N_WORKERS)]
    for w in workers:
        env.run(until=w)
    build_time = env.now - t0
    print(f"\nparallel build finished in {build_time:.1f} simulated s "
          f"(sequential would be ~{N_SOURCES * COMPILE_SECONDS:.1f} s of "
          f"compile time alone)")

    # --- Link, then commit all outputs atomically -------------------------
    linker = BulletClient(env, rpc, bullet.port)

    def link():
        blob = bytearray()
        for name in sorted(objects):
            blob += yield from linker.read(objects[name])
        return (yield from linker.create(bytes(blob), 2))

    binary = run_process(env, link())
    run_process(env, dirs.update_many(project, {
        **objects, "a.out": binary,
    }))
    listing = run_process(env, dirs.list_names(project))
    print(f"committed {len(listing)} artifacts atomically: "
          f"{listing[:3]} ... {listing[-1]}")
    assert "a.out" in listing


if __name__ == "__main__":
    main()
