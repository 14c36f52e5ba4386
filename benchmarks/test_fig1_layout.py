"""E1 — Figure 1: the Bullet disk layout.

Fig. 1 is a structural picture (inode table + contiguous files and
holes), not a measurement; we regenerate it from a *live* volume after
a small create/delete workload, so the rendered holes are real.
"""

from repro.bench import make_rig, timed
from repro.units import KB

from conftest import save_result


def test_fig1_disk_layout():
    rig = make_rig(with_nfs=False, background_load=False)
    env, client = rig.env, rig.bullet_client
    caps = []
    for i in range(6):
        _t, cap = timed(env, client.create(bytes([i]) * (8 * KB), 2))
        caps.append(cap)
    # Delete two files to open holes between the survivors.
    timed(env, client.delete(caps[1]))
    timed(env, client.delete(caps[3]))
    art = rig.bullet.render_layout()
    save_result("fig1_layout", art)

    assert "Disk Descriptor" in art
    assert "Inode Table" in art
    assert "block size   = 512" in art
    # Live files and at least one hole between them must be visible.
    assert "file (inode" in art
    assert "free" in art
