"""Model-based tests for the directory server and the FFS substrate,
mirroring tests/test_model_based.py's approach for the Bullet server."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client import LocalBulletStub
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import ExistsError, NoSpaceError, NotFoundError
from repro.modelcheck import RefDirectory
from repro.nfs import FFS, MODE_FILE
from repro.sim import Environment, run_process
from repro.units import KB

from conftest import (SMALL_DISK, make_bullet, small_testbed,
                      standalone_cache)


# ------------------------------------------------------------- directory


dir_ops = st.lists(
    st.tuples(
        st.sampled_from(["append", "replace", "remove", "lookup", "list"]),
        st.integers(min_value=0, max_value=7),   # name index
        st.integers(min_value=0, max_value=5),   # file index
    ),
    max_size=40,
)


@given(script=dir_ops)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_directory_matches_dict_model(script):
    env = Environment()
    bullet = make_bullet(env, testbed=small_testbed(inode_count=2048))
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed())
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    root = run_process(env, dirs.create_directory())
    files = [run_process(env, bullet.create(f"f{i}".encode(), 1))
             for i in range(6)]
    model = RefDirectory()

    for op, name_index, file_index in script:
        name = f"n{name_index}"
        cap = files[file_index]
        if op == "append":
            if not model.append(name, cap):
                with pytest.raises(ExistsError):
                    run_process(env, dirs.append(root, name, cap))
            else:
                run_process(env, dirs.append(root, name, cap))
        elif op == "replace":
            displaced = model.replace(name, cap)
            if displaced is not None:
                old = run_process(env, dirs.replace(root, name, cap))
                assert old == displaced
            else:
                with pytest.raises(NotFoundError):
                    run_process(env, dirs.replace(root, name, cap))
        elif op == "remove":
            removed_cap = model.remove(name)
            if removed_cap is not None:
                removed = run_process(env, dirs.remove_entry(root, name))
                assert removed == removed_cap
            else:
                with pytest.raises(NotFoundError):
                    run_process(env, dirs.remove_entry(root, name))
        elif op == "lookup":
            expected = model.lookup(name)
            if expected is not None:
                assert run_process(env, dirs.lookup(root, name)) == expected
            else:
                with pytest.raises(NotFoundError):
                    run_process(env, dirs.lookup(root, name))
        else:
            assert run_process(env, dirs.list_names(root)) == model.names()

    # Reboot the directory server: the model must survive exactly.
    dirs.crash()
    reborn = DirectoryServer(env, dirs.disk, LocalBulletStub(bullet),
                             small_testbed(), name="directory")
    env.run(until=env.process(reborn.boot()))
    assert run_process(env, reborn.list_names(root)) == model.names()
    for name in model.names():
        assert run_process(env, reborn.lookup(root, name)) == model.lookup(name)


# -------------------------------------------------------------------- FFS


ffs_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "read"]),
        st.integers(min_value=0, max_value=40 * KB),   # offset
        st.integers(min_value=1, max_value=12 * KB),   # length
        st.integers(min_value=0, max_value=255),       # fill byte
    ),
    max_size=25,
)


@given(script=ffs_ops)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_ffs_file_matches_bytearray_model(script):
    """Random offset writes and reads against one FFS file vs a plain
    bytearray — exercises partial-block read/modify/write, holes, and
    indirect-block paths."""
    env = Environment()
    disk = VirtualDisk(env, SMALL_DISK, name="d")
    cache = standalone_cache(env, disk, 256 * KB, 8192)
    fs = FFS(env, disk, cache, 16)
    fs.format()
    run_process(env, fs.mount())
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    model = bytearray()

    for op, offset, length, fill in script:
        if op == "write":
            data = bytes([fill]) * length
            run_process(env, fs.write(inum, offset, data))
            if offset + length > len(model):
                model.extend(bytes(offset + length - len(model)))
            model[offset:offset + length] = data
        else:
            got = run_process(env, fs.read(inum, offset, length))
            expected = bytes(model[offset:offset + length])
            assert got == expected

    # Full-file comparison, then after a remount (durability).
    inode = run_process(env, fs.inode_read(inum))
    assert inode.size == len(model)
    assert run_process(env, fs.read(inum, 0, len(model) + 1)) == bytes(model)
    run_process(env, cache.sync())
    fs2 = FFS(env, disk, standalone_cache(env, disk, 256 * KB, 8192), 16)
    run_process(env, fs2.mount())
    assert run_process(env, fs2.read(inum, 0, len(model) + 1)) == bytes(model)


def test_ffs_double_indirect_file(env):
    """A file beyond the single-indirect span (12 + 1024 blocks of 8 KB
    with our pointer size => ~8.1 MB using a small ppb? No: ppb = 2048,
    single covers 16.09 MB) — force the double-indirect path with a
    write at a high offset into a sparse file."""
    disk = VirtualDisk(env, SMALL_DISK, name="d")
    cache = standalone_cache(env, disk, 512 * KB, 8192)
    fs = FFS(env, disk, cache, 16)
    fs.format()
    run_process(env, fs.mount())
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    # File-block index beyond NDIRECT + ptrs_per_block = 12 + 2048.
    offset = (12 + 2048 + 5) * 8192
    run_process(env, fs.write(inum, offset, b"deep data"))
    inode = run_process(env, fs.inode_read(inum))
    assert inode.dindirect != 0
    assert run_process(env, fs.read(inum, offset, 9)) == b"deep data"
    # The hole before it reads as zeros.
    assert run_process(env, fs.read(inum, 0, 16)) == bytes(16)
    # Remove frees everything, including both indirect levels.
    free_before_file = fs.free_bytes
    run_process(env, fs.remove(inum))
    assert fs.free_bytes > free_before_file


def test_three_way_mirror_p_factor_three(env):
    """A Bullet server over three replicas honours P-FACTOR 3 and
    survives two disk failures."""
    from repro.capability import Capability
    from conftest import make_bullet

    bullet = make_bullet(env, n_disks=3,
                         testbed=small_testbed(default_p_factor=3))
    cap = run_process(env, bullet.create(b"thrice", 3))
    for disk in bullet.mirror.disks:
        inode = bullet.incarnation.table.get(cap.object)
        assert disk.read_raw(inode.start_block, 1)[:6] == b"thrice"
    bullet.mirror.disks[0].fail("one")
    bullet.mirror.disks[1].fail("two")
    bullet.evict(cap.object)
    assert run_process(env, bullet.read(cap)) == b"thrice"
