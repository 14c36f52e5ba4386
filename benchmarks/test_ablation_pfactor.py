"""A2 — ablation: the P-FACTOR (§2.2).

CREATE latency as a function of paranoia: reply after the RAM cache
(P=0), after one disk (P=1), after both disks (P=2). The paper defines
the semantics; this measures what each level costs per file size.
"""

from repro.bench import make_rig, timed
from repro.units import KB, MB, to_msec

from conftest import save_result

SIZES = [1 * KB, 64 * KB, 1 * MB]


def test_ablation_p_factor():
    rig = make_rig(with_nfs=False)
    env, client = rig.env, rig.bullet_client
    results = {}
    for size in SIZES:
        per_p = []
        for p in (0, 1, 2):
            total = 0.0
            for _ in range(3):
                elapsed, cap = timed(env, client.create(bytes(size), p))
                total += elapsed
                # Drain background writes before deleting (P=0 case),
                # so the delete never races the in-flight write.
                env.run(until=env.now + 0.2)
                timed(env, client.delete(cap))
            per_p.append(total / 3)
        results[size] = per_p
    lines = ["Ablation A2: CREATE latency vs P-FACTOR",
             "=" * 56,
             f"{'size':>10} {'P=0 (ms)':>12} {'P=1 (ms)':>12} {'P=2 (ms)':>12}"]
    for size, (p0, p1, p2) in results.items():
        lines.append(f"{size:>10} {to_msec(p0):>12.1f} {to_msec(p1):>12.1f} "
                     f"{to_msec(p2):>12.1f}")
    save_result("ablation_pfactor", "\n".join(lines))

    for size, (p0, p1, p2) in results.items():
        # More paranoia never gets cheaper.
        assert p0 < p1 <= p2 * 1.05, (size, p0, p1, p2)
        # P=0 skips the disks entirely: far below P=1 for small files,
        # where the disk write dominates the create. (At 64 KB+ the
        # network transfer dominates and the gap narrows.)
        if size <= 4 * KB:
            assert p0 < 0.5 * p1, (size, p0, p1)
