"""Tests for the NFS baseline: buffer cache, FFS, server and client."""

from dataclasses import replace

import pytest

from repro.client.retry import RpcStub
from repro.disk import VirtualDisk
from repro.errors import (
    BadRequestError,
    ConsistencyError,
    ExistsError,
    NoSpaceError,
    NotFoundError,
)
from repro.nfs import (
    FFS,
    FFSInode,
    BufferCache,
    FileHandle,
    MODE_DIR,
    MODE_FILE,
    NFS_OPCODES,
    NfsClient,
    NfsServer,
    ROOT_INUM,
    Superblock,
    decode_directory,
    encode_directory,
)
from repro.net import Ethernet, RpcRequest, RpcTransport, ServiceEndpoint
from repro.profiles import CpuProfile, DiskProfile, EthernetProfile
from repro.sim import Environment, SeededStream, run_process
from repro.units import KB, MB

from conftest import (SMALL_DISK, reference_env, small_testbed,
                      standalone_cache)


def make_fs(env, cache_bytes=512 * KB, fs_block=8192):
    disk = VirtualDisk(env, SMALL_DISK, name="nfsdisk")
    cache = standalone_cache(env, disk, cache_bytes, fs_block)
    fs = FFS(env, disk, cache, 128, fs_block_size=fs_block)
    fs.format()
    run_process(env, fs.mount())
    return fs, cache, disk


def make_server(env, churn=False, testbed=None, transport=None):
    disk = VirtualDisk(env, SMALL_DISK, name="nfsdisk")
    server = NfsServer(env, disk, testbed or small_testbed(),
                       transport=transport, background_churn=churn)
    server.format()
    run_process(env, server.boot())
    return server


def make_rpc_server(env, testbed=None):
    """A server behind the full network path; returns (rpc, server)."""
    rpc = RpcTransport(env, Ethernet(env, EthernetProfile()), CpuProfile())
    return rpc, make_server(env, testbed=testbed, transport=rpc)


def nfs_testbed(**nfs_overrides):
    testbed = small_testbed()
    return replace(testbed, nfs=replace(testbed.nfs, **nfs_overrides))


# ----------------------------------------------------------- buffer cache


def read_block(env, cache, fbn):
    """A block read as the filesystem makes it: a hit in place, a miss
    through the disk."""
    data = cache.probe(fbn)
    return data if data is not None else run_process(env, cache.load(fbn))


def test_cache_read_miss_then_hit(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d")
    disk.write_raw(16, b"cached block!")
    cache = standalone_cache(env, disk, 64 * KB, 8192)
    assert cache.probe(1) is None
    assert cache.stats.misses.value == 0  # the load counts the miss
    data1 = run_process(env, cache.load(1))
    assert data1[:13] == b"cached block!"
    assert cache.stats.misses.value == 1
    t_before = env.now
    data2 = cache.probe(1)
    assert data2 == data1
    assert cache.stats.hits.value == 1
    assert env.now == t_before  # hit costs no disk time


def test_cache_write_through_reaches_disk(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d")
    cache = standalone_cache(env, disk, 64 * KB, 8192)
    run_process(env, cache.write_block(2, b"synchronous"))
    assert disk.read_raw(32, 1)[:11] == b"synchronous"


def test_cache_delayed_write_needs_sync(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d")
    cache = standalone_cache(env, disk, 64 * KB, 8192)
    cache.write_delayed(2, [b"lazy".ljust(8192, b"\0")])
    assert disk.read_raw(32, 1)[:4] == bytes(4)  # not on disk yet
    run_process(env, cache.sync())
    assert disk.read_raw(32, 1)[:4] == b"lazy"


def test_cache_lru_eviction(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d")
    cache = standalone_cache(env, disk, 2 * 8192, 8192)  # 2 blocks
    for fbn in range(3):
        read_block(env, cache, fbn)
    assert not cache.contains(0)
    assert cache.contains(2)
    assert cache.stats.evictions.value == 1


def test_cache_rejects_misaligned_block_size(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d")
    with pytest.raises(ValueError):
        standalone_cache(env, disk, 64 * KB, 1000)


def _kernels():
    """A fresh fast kernel and a fresh reference kernel."""
    return Environment(), reference_env()


def test_cache_churn_evicts_deterministically():
    outcomes = []
    for env in _kernels():
        disk = VirtualDisk(env, SMALL_DISK, name="d")
        cache = standalone_cache(env, disk, 64 * 8192, 8192)
        for fbn in range(32):
            read_block(env, cache, fbn)
        cache.start_churn(SeededStream(11, "churn"), churn_per_second=50.0)
        env.run(until=env.now + 1.0)
        assert cache.stats.churned.value > 10
        assert cache.cached_blocks < 32
        outcomes.append(([fbn for fbn in range(32) if cache.contains(fbn)],
                         cache.stats.churned.value, env.now))
    assert outcomes[0] == outcomes[1]


class _ScriptedChurn:
    """A churn stream whose gaps come from a list, in order, so the
    ticks land on instants the test chooses; every victim pick is the
    least recently used block."""

    def __init__(self, gaps):
        self._gaps = iter(gaps)

    def expovariate(self, rate):
        return next(self._gaps)

    def randint(self, low, high):
        return low


def _churn_beside_the_reference(program):
    """Run ``program(env, cache, endpoint, note)`` on both kernels over
    a cache holding six clean blocks; ``note(tag)`` records the clock
    (and, for reading, the time since the daemon started), the blocks
    still cached and the churn count. Returns the fast kernel's record,
    once it is known to be the reference's, without the clock."""
    records = []
    for env in _kernels():
        disk = VirtualDisk(env, SMALL_DISK, name="d")
        endpoint = ServiceEndpoint(env, 0, None)
        cache = BufferCache(endpoint, disk, 8 * 8192, 8192)
        for fbn in range(6):
            read_block(env, cache, fbn)
        record = []

        def note(tag):
            record.append((tag, env.now, round(env.now - start, 9),
                           [fbn for fbn in range(6) if cache.contains(fbn)],
                           cache.stats.churned.value))

        start = env.now
        program(env, cache, endpoint, note)
        records.append(record)
    assert records[0] == records[1]
    return [entry[:1] + entry[2:] for entry in records[0]]


def _after(env, delay, note, tag):
    """A real event ``delay`` from now, made outside any process (so it
    is on the heap on both kernels), that notes ``tag`` when it fires."""
    env.timeout(delay).callbacks.append(lambda _event: note(tag))


def test_a_churn_tick_tied_with_a_real_event_made_before_it_goes_second():
    def program(env, cache, endpoint, note):
        _after(env, 0.25, note, "event")
        cache.start_churn(_ScriptedChurn([0.25, 100.0]), 1.0)
        env.run(until=env.now + 1.0)
        note("end")

    assert _churn_beside_the_reference(program) == [
        ("event", 0.25, [0, 1, 2, 3, 4, 5], 0),
        ("end", 1.0, [1, 2, 3, 4, 5], 1)]


def test_a_churn_tick_tied_with_a_real_event_made_after_it_goes_first():
    def program(env, cache, endpoint, note):
        cache.start_churn(_ScriptedChurn([0.25, 100.0]), 1.0)
        env.run(until=env.now)  # the start-up: the first tick is made
        _after(env, 0.25, note, "event")
        env.run(until=env.now + 1.0)
        note("end")

    assert _churn_beside_the_reference(program) == [
        ("event", 0.25, [1, 2, 3, 4, 5], 1),
        ("end", 1.0, [1, 2, 3, 4, 5], 1)]


def test_a_churn_tick_at_a_collapse_end_goes_by_when_it_was_made():
    # Worker "early" holds its charge to the tick's instant before the
    # daemon's start-up makes that tick: on the fast kernel the start-up
    # is performed inside the collapse and the tick, newer than the
    # charge, stays pending. Worker "late" holds it after the tick was
    # made: the collapse performs the tick in place first.
    def program(env, cache, endpoint, note):
        def worker(tag):
            yield env.timeout(0.25)
            note(tag)

        env.process(worker("early"))
        cache.start_churn(_ScriptedChurn([0.25, 0.25, 100.0]),
                          1.0)
        env.run(until=env.now + 0.125)

        def late():
            yield env.timeout(0.125)
            note("late")

        env.process(late())
        env.run(until=env.now + 1.0)

    assert _churn_beside_the_reference(program) == [
        ("early", 0.25, [0, 1, 2, 3, 4, 5], 0),
        ("late", 0.25, [1, 2, 3, 4, 5], 1)]


def test_a_churn_tick_on_run_until_t_is_performed_by_that_run():
    def program(env, cache, endpoint, note):
        cache.start_churn(_ScriptedChurn([0.25, 0.25, 100.0]),
                          1.0)
        env.run(until=env.now + 0.25)
        note("t")
        env.run(until=env.now + 0.25)
        note("t2")

    assert _churn_beside_the_reference(program) == [
        ("t", 0.25, [1, 2, 3, 4, 5], 1),
        ("t2", 0.5, [2, 3, 4, 5], 2)]


@pytest.mark.parametrize("crash_first", [True, False],
                         ids=["crash_first", "tick_first"])
def test_a_churn_tick_at_the_crash_instant_ends_with_the_incarnation(
        crash_first):
    # A crash made before the tick (its worker's charge is older) leaves
    # the tick nothing to evict; one made after it crashes behind the
    # eviction. Either way no later tick evicts or counts, and the tick
    # pending at the crash still moves a drained run()'s clock.
    def program(env, cache, endpoint, note):
        def crasher():
            yield env.timeout(0.25)
            endpoint.crash()
            note("crash")

        if crash_first:
            env.process(crasher())
        cache.start_churn(_ScriptedChurn([0.25, 0.25, 100.0]),
                          1.0)
        if not crash_first:
            env.process(crasher())
        env.run()
        note("drained")
        if not env.is_reference:
            assert env._sources == []

    evicted = [] if crash_first else [0]
    cached = [fbn for fbn in range(6) if fbn not in evicted]
    assert _churn_beside_the_reference(program) == [
        ("crash", 0.25, cached, len(evicted)),
        ("drained", 0.25 if crash_first else 0.5, cached, len(evicted))]


# -------------------------------------------------------------------- FFS


def test_directory_encoding_roundtrip():
    entries = {"alpha": 3, "beta": 77}
    assert decode_directory(encode_directory(entries)) == entries


def _words(values) -> bytes:
    """The codecs' format as it was first written down: one big-endian
    32-bit word per field, joined."""
    return b"".join(v.to_bytes(4, "big") for v in values)


def test_ffs_codecs_are_byte_identical_to_the_per_word_encoding():
    inode = FFSInode(mode=MODE_FILE, size=3 * MB + 17, generation=9,
                     mtime_ms=(1 << 32) + 1234,  # wraps to 32 bits on disk
                     direct=list(range(101, 113)), indirect=777,
                     dindirect=0xFFFFFFFF)
    old = _words([MODE_FILE, 3 * MB + 17, 9, 1234, *range(101, 113),
                  777, 0xFFFFFFFF])
    old += bytes(128 - len(old))
    assert inode.encode() == old
    decoded = FFSInode.decode(old)
    assert decoded == FFSInode(mode=MODE_FILE, size=3 * MB + 17,
                               generation=9, mtime_ms=1234,
                               direct=list(range(101, 113)), indirect=777,
                               dindirect=0xFFFFFFFF)
    assert decoded.encode() == old
    # Decoding in place from an inode-table block, as inode_read does.
    assert FFSInode.decode(bytes(256) + old + bytes(128), 256) == decoded
    assert FFSInode.decode(bytes(128)) == FFSInode()

    sb = Superblock(8192, 128, 1, 2, 3, 1, 4, 4000, 12, 8)
    old = _words([0xFF5FF5FF, 8192, 128, 1, 2, 3, 1, 4, 4000, 12, 8])
    assert sb.encode() == old
    assert Superblock.decode(old + bytes(8192 - len(old))) == sb


def test_ffs_format_and_mount(env):
    fs, _cache, _disk = make_fs(env)
    assert fs.sb.data_blocks > 0
    root = run_process(env, fs.inode_read(ROOT_INUM))
    assert root.mode == MODE_DIR


def test_ffs_write_read_small(env):
    fs, _c, _d = make_fs(env)
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    run_process(env, fs.write(inum, 0, b"hello ffs"))
    assert run_process(env, fs.read(inum, 0, 100)) == b"hello ffs"


def test_ffs_partial_block_rmw(env):
    fs, _c, _d = make_fs(env)
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    run_process(env, fs.write(inum, 0, b"AAAA"))
    run_process(env, fs.write(inum, 2, b"BB"))
    assert run_process(env, fs.read(inum, 0, 4)) == b"AABB"


def test_ffs_large_file_uses_indirect_blocks(env):
    fs, _c, _d = make_fs(env)
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    size = 200 * KB  # > 12 * 8 KB direct span
    payload = bytes(range(256)) * (size // 256)
    run_process(env, fs.write(inum, 0, payload))
    inode = run_process(env, fs.inode_read(inum))
    assert inode.indirect != 0
    assert run_process(env, fs.read(inum, 0, size)) == payload


def test_ffs_read_at_offset(env):
    fs, _c, _d = make_fs(env)
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    run_process(env, fs.write(inum, 0, bytes(10 * KB)))
    run_process(env, fs.write(inum, 10 * KB, b"MARKER"))
    assert run_process(env, fs.read(inum, 10 * KB, 6)) == b"MARKER"


def test_ffs_read_past_eof(env):
    fs, _c, _d = make_fs(env)
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    run_process(env, fs.write(inum, 0, b"tiny"))
    assert run_process(env, fs.read(inum, 100, 10)) == b""
    assert run_process(env, fs.read(inum, 2, 10)) == b"ny"


def test_ffs_cylinder_groups_scatter_large_files(env):
    """FFS policy: a large file's blocks span multiple cylinder groups,
    with a group switch every maxbpg blocks."""
    fs, _c, _d = make_fs(env)
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    run_process(env, fs.write(inum, 0, bytes(400 * KB)))
    inode = run_process(env, fs.inode_read(inum))

    def group_of(fbn):
        per_group = fs.sb.data_blocks // fs.sb.cg_count
        return (fbn - fs.sb.data_start) // per_group

    groups = set()
    nblocks = (400 * KB) // fs.fs_block_size
    for fbi in range(nblocks):
        fbn = run_process(env, fs.bmap(inum, inode, fbi))
        groups.add(group_of(fbn))
    assert len(groups) >= 3


def test_ffs_remove_frees_everything(env):
    fs, _c, _d = make_fs(env)
    free_before = fs.free_bytes
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    run_process(env, fs.write(inum, 0, bytes(200 * KB)))
    assert fs.free_bytes < free_before
    run_process(env, fs.remove(inum))
    assert fs.free_bytes == free_before
    with pytest.raises(NotFoundError):
        run_process(env, fs.read(inum, 0, 1))


def test_ffs_inode_exhaustion(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d")
    cache = standalone_cache(env, disk, 256 * KB, 8192)
    fs = FFS(env, disk, cache, 4)
    fs.format()
    run_process(env, fs.mount())
    for _ in range(2):  # inodes 2, 3 (0 reserved, 1 root)
        run_process(env, fs.alloc_inode(MODE_FILE))
    with pytest.raises(NoSpaceError):
        run_process(env, fs.alloc_inode(MODE_FILE))


def test_ffs_dir_operations(env):
    fs, _c, _d = make_fs(env)
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    run_process(env, fs.dir_add(ROOT_INUM, "file.txt", inum))
    assert run_process(env, fs.dir_lookup(ROOT_INUM, "file.txt")) == inum
    with pytest.raises(ExistsError):
        run_process(env, fs.dir_add(ROOT_INUM, "file.txt", inum))
    assert run_process(env, fs.dir_remove(ROOT_INUM, "file.txt")) == inum
    with pytest.raises(NotFoundError):
        run_process(env, fs.dir_lookup(ROOT_INUM, "file.txt"))


def test_mount_refuses_an_inode_pointing_outside_the_data_area(env):
    fs, _cache, disk = make_fs(env)
    inum, inode = run_process(env, fs.alloc_inode(MODE_FILE))
    inode.direct[0] = fs.sb.inode_start   # an inode-table block
    run_process(env, fs.inode_write(inum, inode))
    fresh = FFS(env, disk, standalone_cache(env, disk, 512 * KB, 8192), 128)
    with pytest.raises(ConsistencyError, match="outside the data area"):
        run_process(env, fresh.mount())


def test_ffs_persistence_across_remount(env):
    disk = VirtualDisk(env, SMALL_DISK, name="d")
    cache = standalone_cache(env, disk, 256 * KB, 8192)
    fs = FFS(env, disk, cache, 1024)
    fs.format()
    run_process(env, fs.mount())
    inum, _ = run_process(env, fs.alloc_inode(MODE_FILE))
    run_process(env, fs.write(inum, 0, b"survives remount"))
    run_process(env, fs.dir_add(ROOT_INUM, "f", inum))
    run_process(env, cache.sync())
    # Fresh cache + FFS over the same disk.
    cache2 = standalone_cache(env, disk, 256 * KB, 8192)
    fs2 = FFS(env, disk, cache2, 1024)
    run_process(env, fs2.mount())
    assert run_process(env, fs2.dir_lookup(ROOT_INUM, "f")) == inum
    assert run_process(env, fs2.read(inum, 0, 100)) == b"survives remount"
    assert fs2.free_bytes == fs.free_bytes


def test_the_nfs_plane_keeps_its_counts():
    """One scripted sequence through the FFS and its cache, with every
    count pinned, on both kernels: direct and indirect blocks, a single-
    and a multi-block read, a partial write, a remove, and both bitmap
    blocks evicted by churn and then synced again."""
    for env in _kernels():
        _pinned_nfs_plane(env)


def _pinned_nfs_plane(env):
    disk = VirtualDisk(env, DiskProfile(
        name="pin", capacity_bytes=128 * MB, cylinders=256, heads=8,
        sectors_per_track=64), name="pin")
    cache = standalone_cache(env, disk, 128 * KB, 8192)   # 16 blocks
    fs = FFS(env, disk, cache, 64)
    fs.format()
    run_process(env, fs.mount())
    assert fs.sb.bitmap_blocks == 2
    a, _b, c, d = (run_process(env, fs.alloc_inode(MODE_FILE))[0]
                   for _ in range(4))
    big = bytes(range(256)) * 32 * 14   # 12 direct blocks, 2 indirect
    run_process(env, fs.write(a, 0, big))
    # Inode 5 allocates in group 5, which the second bitmap block maps.
    run_process(env, fs.write(d, 0, b"d" * 3000))
    run_process(env, fs.write(d, 5000, b"e" * 5000))
    assert run_process(env, fs.read(a, 3 * 8192, 8192)) == big[3 * 8192:4 * 8192]
    assert (run_process(env, fs.read(a, 100, 13 * 8192))
            == big[100:100 + 13 * 8192])
    run_process(env, fs.remove(a))
    run_process(env, cache.sync())   # the bitmaps are clean: churnable
    cache.start_churn(SeededStream(5, "pin-churn"), 2000.0)
    env.run(until=env.now + 0.02)
    bitmaps = [fs.sb.bitmap_start + i for i in range(2)]
    assert not any(cache.contains(fbn) for fbn in bitmaps)
    run_process(env, fs.write(c, 0, b"c" * 20000))
    run_process(env, cache.sync())

    stats = cache.stats
    assert {name: getattr(stats, name).value
            for name in ("hits", "misses", "delayed_writes", "write_throughs",
                         "evictions", "churned")} == {
        "hits": 34, "misses": 23, "delayed_writes": 10, "write_throughs": 32,
        "evictions": 23, "churned": 23}
    assert (disk.stats.reads.value, disk.stats.writes.value) == (24, 35)
    spb = 8192 // disk.block_size
    on_disk = disk.read_raw(fs.sb.bitmap_start * spb, 2 * spb)
    allocated = [rel for rel, used in enumerate(on_disk) if used]
    assert allocated == [8188, 8189, 8190, 10235, 10236]
    assert allocated == sorted(fbn - fs.sb.data_start
                               for _inum, fbn in fs.owned_blocks())
    assert env.now == pytest.approx(1.0730055297507948)


# ------------------------------------------------------------- NFS server


def test_nfs_create_write_read(env):
    server = make_server(env)
    root = server.root_handle
    fh = run_process(env, server.create(root, "data.bin"))
    run_process(env, server.write(fh, 0, b"nfs payload"))
    assert run_process(env, server.read(fh, 0, 8192)) == b"nfs payload"


def test_nfs_lookup_and_getattr(env):
    server = make_server(env)
    fh = run_process(env, server.create(server.root_handle, "x"))
    run_process(env, server.write(fh, 0, bytes(100)))
    found = run_process(env, server.lookup(server.root_handle, "x"))
    assert found == fh
    attrs = run_process(env, server.getattr(fh))
    assert attrs["mode"] == MODE_FILE
    assert attrs["size"] == 100
    assert attrs["mtime_ms"] >= 0


def test_nfs_stale_handle_after_remove(env):
    server = make_server(env)
    fh = run_process(env, server.create(server.root_handle, "gone"))
    run_process(env, server.remove(server.root_handle, "gone"))
    with pytest.raises(NotFoundError):
        run_process(env, server.getattr(fh))
    # Re-creating bumps the generation: the old handle stays stale.
    fh2 = run_process(env, server.create(server.root_handle, "gone"))
    assert fh2.inum == fh.inum and fh2.generation != fh.generation
    with pytest.raises(NotFoundError):
        run_process(env, server.read(fh, 0, 10))


def test_nfs_transfer_size_enforced(env):
    server = make_server(env)
    fh = run_process(env, server.create(server.root_handle, "x"))
    with pytest.raises(BadRequestError):
        run_process(env, server.read(fh, 0, 16 * KB))
    with pytest.raises(BadRequestError):
        run_process(env, server.write(fh, 0, bytes(16 * KB)))


def test_nfs_write_is_synchronous(env):
    """A WRITE reply means the data is on disk: a post-write crash of
    the cache must not lose it."""
    server = make_server(env)
    fh = run_process(env, server.create(server.root_handle, "durable"))
    run_process(env, server.write(fh, 0, b"stable storage"))
    # Blow away the cache entirely and reread through a fresh server.
    server2 = NfsServer(env, server.disk, small_testbed())
    run_process(env, server2.boot())
    fh2 = run_process(env, server2.lookup(server2.root_handle, "durable"))
    assert run_process(env, server2.read(fh2, 0, 8192)) == b"stable storage"


def test_nfs_mkdir_and_readdir(env):
    server = make_server(env)
    sub = run_process(env, server.mkdir(server.root_handle, "subdir"))
    run_process(env, server.create(sub, "inner"))
    assert run_process(env, server.readdir(server.root_handle)) == ["subdir"]
    assert run_process(env, server.readdir(sub)) == ["inner"]


def test_mkdir_and_readdir_over_rpc_refuse_a_stale_directory_handle(env):
    rpc, server = make_rpc_server(env)
    stub = RpcStub(env, rpc)
    root = tuple(server.root_handle)

    def nfs(op, *args):
        request = RpcRequest(opcode=NFS_OPCODES[op], args=args)
        return run_process(env, stub.transact(server.port, request)).args

    (old,) = nfs("MKDIR", root, "sub")
    nfs("MKDIR", old, "inner")
    assert nfs("READDIR", root) == ("sub",)
    assert nfs("READDIR", old) == ("inner",)
    # Remove and re-make the directory: same inode, next generation.
    nfs("REMOVE", old, "inner")
    nfs("REMOVE", root, "sub")
    (new,) = nfs("MKDIR", root, "sub")
    assert new[0] == old[0] and new[1] != old[1]
    # The old handle names a directory that no longer exists; serving it
    # would read and write the new one.
    with pytest.raises(NotFoundError, match="stale"):
        nfs("MKDIR", old, "intruder")
    with pytest.raises(NotFoundError, match="stale"):
        nfs("READDIR", old)
    assert nfs("READDIR", new) == ()


#: procedure -> call on (server, a directory handle, a file handle).
NFS_PROCEDURES = {
    "lookup": lambda s, d, f: s.lookup(s.root_handle, "file"),
    "getattr": lambda s, d, f: s.getattr(f),
    "read": lambda s, d, f: s.read(f, 0, 100),
    "write": lambda s, d, f: s.write(f, 0, b"data"),
    "create": lambda s, d, f: s.create(d, "new"),
    "remove": lambda s, d, f: s.remove(s.root_handle, "file"),
    "mkdir": lambda s, d, f: s.mkdir(d, "newdir"),
    "readdir": lambda s, d, f: s.readdir(d),
}


@pytest.mark.parametrize("procedure", sorted(NFS_PROCEDURES))
def test_every_procedure_charges_the_server_overhead_once(procedure):
    """Two servers that differ only in ``server_op_overhead`` differ, on
    any one procedure, by exactly that overhead."""

    def elapsed(overhead):
        env = Environment()
        server = make_server(
            env, testbed=nfs_testbed(server_op_overhead=overhead))
        d = run_process(env, server.mkdir(server.root_handle, "dir"))
        f = run_process(env, server.create(server.root_handle, "file"))
        start = env.now
        run_process(env, NFS_PROCEDURES[procedure](server, d, f))
        return env.now - start

    overhead = small_testbed().nfs.server_op_overhead
    assert elapsed(overhead) - elapsed(0.0) == pytest.approx(overhead)


# ------------------------------------------------------------- NFS client


def make_client(env, testbed=None):
    rpc, server = make_rpc_server(env)
    client = NfsClient(env, testbed or small_testbed(), rpc=rpc,
                       server_port=server.port)
    return client, server


#: syscall -> call on (client, an open descriptor).
NFS_SYSCALLS = {
    "open": lambda c, fd: c.open("/file"),
    "creat": lambda c, fd: c.creat("/new"),
    "read": lambda c, fd: c.read(fd, 4),
    "write": lambda c, fd: c.write(fd, b"more"),
    "lseek": lambda c, fd: c.lseek(fd, 0),
    "close": lambda c, fd: c.close(fd),
    "unlink": lambda c, fd: c.unlink("/file"),
    "mkdir": lambda c, fd: c.mkdir("/dir"),
    "fstat": lambda c, fd: c.fstat(fd),
}


@pytest.mark.parametrize("syscall", sorted(NFS_SYSCALLS))
def test_every_syscall_charges_the_client_overhead_once(syscall):
    """The client-side twin of the server table above."""

    def elapsed(overhead):
        env = Environment()
        client, _server = make_client(
            env, nfs_testbed(client_op_overhead=overhead))

        def setup():
            fd = yield from client.creat("/file")
            yield from client.write(fd, b"data")
            yield from client.lseek(fd, 0)
            return fd

        fd = run_process(env, setup())
        start = env.now
        run_process(env, NFS_SYSCALLS[syscall](client, fd))
        return env.now - start

    overhead = small_testbed().nfs.client_op_overhead
    assert elapsed(overhead) - elapsed(0.0) == pytest.approx(overhead)


def test_client_creat_write_close_open_read(env):
    client, _server = make_client(env)
    payload = bytes(range(256)) * 64  # 16 KB => two 8 KB RPCs

    def writer():
        fd = yield from client.creat("/file.bin")
        yield from client.write(fd, payload)
        yield from client.close(fd)

    run_process(env, writer())

    def reader():
        fd = yield from client.open("/file.bin")
        yield from client.lseek(fd, 0)
        data = yield from client.read(fd, len(payload))
        yield from client.close(fd)
        return data

    assert run_process(env, reader()) == payload


def test_client_paths_resolve_through_directories(env):
    client, _server = make_client(env)

    def setup():
        yield from client.mkdir("/home")
        yield from client.mkdir("/home/user")
        fd = yield from client.creat("/home/user/doc")
        yield from client.write(fd, b"nested")
        yield from client.close(fd)
        fd = yield from client.open("/home/user/doc")
        return (yield from client.read(fd, 100))

    assert run_process(env, setup()) == b"nested"


def test_client_unlink(env):
    client, _server = make_client(env)

    def scenario():
        fd = yield from client.creat("/temp")
        yield from client.close(fd)
        yield from client.unlink("/temp")
        try:
            yield from client.open("/temp")
        except NotFoundError:
            return "gone"

    assert run_process(env, scenario()) == "gone"


def test_client_bad_fd(env):
    client, _server = make_client(env)

    def scenario():
        try:
            yield from client.read(99, 10)
        except BadRequestError:
            return "bad fd"

    assert run_process(env, scenario()) == "bad fd"


def test_client_reads_cost_per_chunk_time(env):
    """64 KB must cost roughly 8x the per-chunk time of 8 KB (no
    read-ahead, sequential RPCs)."""
    client, _server = make_client(env)

    def write_file(name, size):
        fd = yield from client.creat(name)
        yield from client.write(fd, bytes(size))
        yield from client.close(fd)

    run_process(env, write_file("/small", 8 * KB))
    run_process(env, write_file("/large", 64 * KB))

    def timed_read(name, size):
        fd = yield from client.open(name)
        t0 = env.now
        yield from client.read(fd, size)
        return env.now - t0

    t_small = run_process(env, timed_read("/small", 8 * KB))
    t_large = run_process(env, timed_read("/large", 64 * KB))
    assert 5 * t_small < t_large < 12 * t_small


def test_client_over_rpc_plane(env):
    """Full network path: client -> RPC -> server."""
    rpc, server = make_rpc_server(env)
    client = NfsClient(env, small_testbed(), rpc=rpc, server_port=server.port)

    def scenario():
        fd = yield from client.creat("/net.bin")
        yield from client.write(fd, b"over the wire")
        yield from client.close(fd)
        fd = yield from client.open("/net.bin")
        return (yield from client.read(fd, 100))

    assert run_process(env, scenario()) == b"over the wire"
    assert env.now > 0.01  # several RPC round trips of simulated time


def test_a_rebooted_server_gives_no_acknowledged_block_away(env):
    """Bitmaps are delayed writes and nothing syncs them, so the disk's
    copy is stale when a server loses its RAM. Mount rebuilds the map
    from the inodes, so a file created after the reboot in the same
    cylinder group gets fresh blocks instead of the acknowledged
    file's."""
    server = make_server(env)
    durable = run_process(env, server.create(server.root_handle, "durable"))
    assert durable.inum == 2
    run_process(env, server.write(durable, 0, b"A" * 8192))
    # Blow away the RAM and boot a fresh server on the same disk.
    server2 = NfsServer(env, server.disk, small_testbed())
    run_process(env, server2.boot())
    root = server2.root_handle
    names = (f"later{n}" for n in range(16))
    while True:
        later = run_process(env, server2.create(root, next(names)))
        if later.inum == 10:  # (10 + 0) % 8 == 2: durable's group
            break
    run_process(env, server2.write(later, 0, b"B" * 8192))
    fh = run_process(env, server2.lookup(root, "durable"))
    assert run_process(env, server2.read(fh, 0, 8192)) == b"A" * 8192
    owners = {}
    for inum, fbn in server2.incarnation.fs.owned_blocks():
        assert owners.setdefault(fbn, inum) == inum, f"block {fbn} owned twice"
