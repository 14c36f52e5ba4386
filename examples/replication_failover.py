#!/usr/bin/env python3
"""Availability: P-FACTOR, primary-disk failure, whole-disk recovery (§3).

"If the main disk fails, the file server can proceed uninterruptedly by
using the other disk. Recovery is simply done by copying the complete
disk."

Shows: (1) what each paranoia level costs on CREATE; (2) reads
continuing through a primary-disk failure; (3) the recovery copy and
the server returning to full redundancy.

Run:  python examples/replication_failover.py
"""

from dataclasses import replace

from repro import (
    DEFAULT_TESTBED,
    BulletClient,
    BulletServer,
    Environment,
    Ethernet,
    FaultController,
    FaultPlan,
    MirroredDiskSet,
    RpcTransport,
    VirtualDisk,
    run_process,
)
from repro.units import KB, MB, to_msec


def main():
    # A 64 MB disk keeps the whole-disk recovery copy quick to watch.
    testbed = replace(DEFAULT_TESTBED,
                      disk=replace(DEFAULT_TESTBED.disk,
                                   capacity_bytes=64 * MB, cylinders=256))
    env = Environment()
    ethernet = Ethernet(env, testbed.ethernet)
    rpc = RpcTransport(env, ethernet, testbed.cpu)
    disks = [VirtualDisk(env, testbed.disk, name=f"disk{i}") for i in (0, 1)]
    mirror = MirroredDiskSet(env, disks)
    server = BulletServer(env, mirror, testbed, transport=rpc)
    server.format()
    run_process(env, server.boot())
    client = BulletClient(env, rpc, server.port)

    # --- 1. The price of paranoia ----------------------------------------
    print("CREATE of a 16 KB file at each paranoia level:")
    for p in (0, 1, 2):
        t0 = env.now
        cap = run_process(env, client.create(bytes(16 * KB), p))
        delay = env.now - t0
        env.run(until=env.now + 0.5)  # drain background writes
        run_process(env, client.delete(cap))
        meaning = {0: "reply after RAM cache", 1: "after one disk",
                   2: "after both disks"}[p]
        print(f"  P-FACTOR={p}: {to_msec(delay):6.1f} ms  ({meaning})")

    # --- 2. Failover -------------------------------------------------------
    print("\nstoring 8 files (P-FACTOR=2), then killing the primary disk...")
    caps = []
    for i in range(8):
        cap = run_process(env, client.create(bytes([i]) * (32 * KB), 2))
        caps.append(cap)
        server.evict(cap.object)  # force post-failure reads to hit disk

    plan = FaultPlan().disk_fail("disk0", at=env.now + 0.001,
                                 reason="head crash")
    FaultController(env, plan).attach_disk("disk0", disks[0]).start()
    env.run(until=env.now + 0.002)
    print(f"  primary {disks[0].name} dead; live replicas: "
          f"{mirror.replica_count}")

    ok = 0
    for i, cap in enumerate(caps):
        data = run_process(env, client.read(cap))
        assert data == bytes([i]) * (32 * KB)
        ok += 1
    print(f"  {ok}/8 reads served uninterruptedly from {mirror.primary.name}")

    # --- 3. Recovery: copy the complete disk ------------------------------
    print("\nreplacing the dead drive and copying the complete disk...")
    t0 = env.now
    blocks = run_process(env, mirror.recover(disks[0]))
    print(f"  copied {blocks} blocks ({blocks * 512 // MB} MB) in "
          f"{env.now - t0:.1f} simulated seconds")
    print(f"  live replicas: {mirror.replica_count}; "
          f"primary again: {mirror.primary.name}")

    # Full redundancy: P-FACTOR=2 creates work again.
    cap = run_process(env, client.create(b"fully replicated again", 2))
    for disk in disks:
        inode = server.table.get(cap.object)
        raw = disk.read_raw(inode.start_block, 1)
        assert raw.startswith(b"fully replicated again")
    print("  verified: new file present on both disks")


if __name__ == "__main__":
    main()
