"""A6 — availability: primary-disk failure and whole-disk recovery.

§3: "If the main disk fails, the file server can proceed uninterruptedly
by using the other disk. Recovery is simply done by copying the complete
disk."

We run a read workload, kill the primary mid-run, verify every read
still succeeds (failover), then measure the recovery copy and verify
the recovered replica is bit-identical where it matters.
"""

from dataclasses import replace

from repro.bench import make_rig, timed
from repro.profiles import DEFAULT_TESTBED
from repro.sim import run_process
from repro.units import KB, MB

from conftest import save_result


def test_failover_and_recovery():
    # A smaller disk keeps the full recovery copy measurable.
    disk = replace(DEFAULT_TESTBED.disk, capacity_bytes=64 * MB,
                   cylinders=256)
    testbed = replace(DEFAULT_TESTBED, disk=disk)
    rig = make_rig(testbed=testbed, with_nfs=False, background_load=False)
    env, server, client = rig.env, rig.bullet, rig.bullet_client

    caps = []
    for i in range(10):
        _t, cap = timed(env, client.create(bytes([i]) * (64 * KB), 2))
        caps.append(cap)
    # Cold caches so post-failure reads must hit the surviving disk.
    for cap in caps:
        server.evict(cap.object)

    primary = server.mirror.disks[0]
    primary.fail("A6 injected failure")
    failover_reads = 0
    for i, cap in enumerate(caps):
        _t, data = timed(env, client.read(cap))
        assert data == bytes([i]) * (64 * KB)
        failover_reads += 1

    # Recovery: whole-disk copy back onto the repaired drive.
    t0 = env.now
    blocks = run_process(env, server.mirror.recover(primary))
    recovery_time = env.now - t0

    # The recovered replica serves reads again as primary.
    assert server.mirror.primary is primary
    for cap in caps:
        server.evict(cap.object)
    _t, data = timed(env, client.read(caps[0]))
    assert data == bytes([0]) * (64 * KB)
    save_result(
        "failover_recovery",
        "\n".join([
            "A6: primary failure, failover, whole-disk recovery",
            "=" * 56,
            f"reads served during failover : {failover_reads}/10",
            f"recovery copy                : {blocks} blocks "
            f"({blocks * 512 // MB} MB)",
            f"recovery time (simulated)    : {recovery_time:.1f} s",
        ]),
    )
    assert failover_reads == 10
    assert recovery_time > 0
