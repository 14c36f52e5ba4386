"""A1 — ablation: contiguous extents vs scattered blocks, network held
constant.

The §2 design argument is that contiguous placement turns a file read
into one seek + one rotational latency + streaming transfer, where the
traditional block model pays per-block positioning and per-block
metadata. Both servers here sit on identical disks; we measure the
**server-side disk path only** (local planes, cold caches), so the RPC
difference is excluded and the layout effect is isolated.
"""

from repro.bench import make_rig, timed
from repro.nfs import MODE_FILE
from repro.sim import run_process
from repro.units import KB, MB, to_msec

from conftest import save_result

SIZES = [64 * KB, 256 * KB, 1 * MB]


def test_ablation_contiguous_vs_scattered():
    rig = make_rig(background_load=False, nfs_churn=False)
    env = rig.env
    results = {}
    for size in SIZES:
        # Bullet: contiguous extent, cold cache -> one disk access.
        cap = run_process(env, rig.bullet.create(bytes(size), 2))
        rig.bullet.evict(cap.object)
        bullet_cold, _ = timed(env, rig.bullet.read(cap))

        # FFS: same bytes scattered per cylinder-group policy; read
        # with an empty buffer cache -> per-block disk accesses.
        fs = rig.nfs.fs
        inum, _inode = run_process(env, fs.alloc_inode(MODE_FILE))
        run_process(env, fs.write(inum, 0, bytes(size)))
        rig.nfs.cache._blocks.clear()  # cold cache
        ffs_cold, _ = timed(env, fs.read(inum, 0, size))
        results[size] = (bullet_cold, ffs_cold)
    lines = ["Ablation A1: contiguous vs scattered layout (cold server reads)",
             "=" * 66,
             f"{'size':>10} {'contiguous (ms)':>18} {'scattered (ms)':>18} {'ratio':>8}"]
    for size, (bullet_cold, ffs_cold) in results.items():
        lines.append(
            f"{size:>10} {to_msec(bullet_cold):>18.1f} "
            f"{to_msec(ffs_cold):>18.1f} {ffs_cold / bullet_cold:>7.1f}x"
        )
    save_result("ablation_contiguity", "\n".join(lines))

    # Scattered layout must lose, and lose harder as files grow.
    ratios = [ffs / bullet for bullet, ffs in results.values()]
    assert all(r > 1.3 for r in ratios), ratios
    assert ratios[-1] >= ratios[0] * 0.9  # no collapse at large sizes
