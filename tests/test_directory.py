"""Tests for the directory server: naming, protection, path walking,
version chains, and crash recovery."""

import pytest

from repro.capability import (
    Capability,
    NULL_CAPABILITY,
    RIGHT_CREATE,
    RIGHT_DELETE,
    RIGHT_READ,
    restrict,
)
from repro.client import LocalBulletStub
from repro.directory import DirectoryRows, DirectoryServer, SlotRecord
from repro.directory.server import MAX_DIRECTORIES
from repro.disk import VirtualDisk
from repro.errors import (
    BadRequestError,
    ExistsError,
    NotADirectoryError_,
    NotEmptyError,
    NotFoundError,
    RightsError,
)
from repro.sim import Environment, run_process

from conftest import SMALL_DISK, make_bullet, small_testbed


def make_dir_server(env, bullet=None, name="directory"):
    bullet = bullet or make_bullet(env)
    disk = VirtualDisk(env, SMALL_DISK, name=f"{name}-disk")
    server = DirectoryServer(env, disk, LocalBulletStub(bullet),
                             small_testbed(), name=name)
    server.format()
    env.run(until=env.process(server.boot()))
    return server, bullet


def call(env, gen):
    return run_process(env, gen)


# --------------------------------------------------------------- records


def test_rows_roundtrip():
    cap = Capability(port=1, object=2, rights=3, check=4)
    rows = DirectoryRows(seq=7, prev_version=NULL_CAPABILITY,
                         rows={"hello": cap, "world": cap})
    decoded = DirectoryRows.decode(rows.encode())
    assert decoded.seq == 7
    assert decoded.rows == rows.rows


def test_rows_unicode_names():
    cap = Capability(port=1, object=2, rights=3, check=4)
    rows = DirectoryRows(rows={"日本語ファイル": cap})
    assert DirectoryRows.decode(rows.encode()).rows == rows.rows


def test_rows_reject_garbage():
    from repro.errors import ConsistencyError
    with pytest.raises(ConsistencyError):
        DirectoryRows.decode(b"garbage data that is long enough to parse")


def test_slot_record_roundtrip():
    cap = Capability(port=9, object=8, rights=7, check=6)
    record = SlotRecord(in_use=True, secret=0xABC, seq=3, version_cap=cap)
    decoded = SlotRecord.decode(record.encode())
    assert decoded == record


def test_zero_slot_decodes_as_free():
    assert not SlotRecord.decode(bytes(32)).in_use


# -------------------------------------------------------------- lifecycle


def test_create_and_lookup(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    file_cap = call(env, bullet.create(b"contents", p_factor=1))
    call(env, dirs.append(root, "readme", file_cap))
    assert call(env, dirs.lookup(root, "readme")) == file_cap


def test_lookup_missing_entry(env):
    dirs, _ = make_dir_server(env)
    root = call(env, dirs.create_directory())
    with pytest.raises(NotFoundError):
        call(env, dirs.lookup(root, "ghost"))


def test_append_duplicate_rejected(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    call(env, dirs.append(root, "name", cap))
    with pytest.raises(ExistsError):
        call(env, dirs.append(root, "name", cap))


def test_invalid_names_rejected(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    with pytest.raises(BadRequestError):
        call(env, dirs.append(root, "", cap))
    with pytest.raises(BadRequestError):
        call(env, dirs.append(root, "a/b", cap))


def test_list_names_sorted(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    for name in ("zebra", "apple", "mango"):
        call(env, dirs.append(root, name, cap))
    assert call(env, dirs.list_names(root)) == ["apple", "mango", "zebra"]


def test_replace_swaps_and_returns_old(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    v1 = call(env, bullet.create(b"version 1", p_factor=1))
    v2 = call(env, bullet.create(b"version 2", p_factor=1))
    call(env, dirs.append(root, "doc", v1))
    old = call(env, dirs.replace(root, "doc", v2))
    assert old == v1
    assert call(env, dirs.lookup(root, "doc")) == v2


def test_replace_missing_entry(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    with pytest.raises(NotFoundError):
        call(env, dirs.replace(root, "nope", cap))


def test_remove_entry(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    call(env, dirs.append(root, "temp", cap))
    removed = call(env, dirs.remove_entry(root, "temp"))
    assert removed == cap
    with pytest.raises(NotFoundError):
        call(env, dirs.lookup(root, "temp"))


def test_delete_directory_requires_empty(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    sub = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    call(env, dirs.append(sub, "file", cap))
    with pytest.raises(NotEmptyError):
        call(env, dirs.delete_directory(sub))
    call(env, dirs.remove_entry(sub, "file"))
    call(env, dirs.delete_directory(sub))
    with pytest.raises(NotFoundError):
        call(env, dirs.list_names(sub))


def test_slot_reuse_has_fresh_secret(env):
    dirs, _ = make_dir_server(env)
    old = call(env, dirs.create_directory())
    call(env, dirs.delete_directory(old))
    new = call(env, dirs.create_directory())
    assert new.object == old.object
    from repro.errors import CapabilityError
    with pytest.raises((CapabilityError, NotFoundError)):
        call(env, dirs.list_names(old))


def test_directory_table_exhaustion(env):
    # Enough Bullet inodes that the slot table runs out first.
    bullet = make_bullet(env, testbed=small_testbed(
        inode_count=MAX_DIRECTORIES + 8))
    dirs, _ = make_dir_server(env, bullet)
    for _ in range(MAX_DIRECTORIES):
        call(env, dirs.create_directory())
    with pytest.raises(BadRequestError):
        call(env, dirs.create_directory())


# --------------------------------------------------------------- security


def test_lookup_requires_read_right(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    call(env, dirs.append(root, "f", cap))
    create_only = restrict(root, RIGHT_CREATE)
    with pytest.raises(RightsError):
        call(env, dirs.lookup(create_only, "f"))


def test_append_requires_create_right(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    reader = restrict(root, RIGHT_READ)
    with pytest.raises(RightsError):
        call(env, dirs.append(reader, "f", cap))


def test_remove_requires_delete_right(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    call(env, dirs.append(root, "f", cap))
    reader = restrict(root, RIGHT_READ | RIGHT_CREATE)
    with pytest.raises(RightsError):
        call(env, dirs.remove_entry(reader, "f"))


# ------------------------------------------------------------ path walking


def build_tree(env, dirs, bullet):
    """/home/user/notes.txt plus /etc."""
    root = call(env, dirs.create_directory())
    home = call(env, dirs.create_directory())
    user = call(env, dirs.create_directory())
    etc = call(env, dirs.create_directory())
    notes = call(env, bullet.create(b"my notes", p_factor=1))
    call(env, dirs.append(root, "home", home))
    call(env, dirs.append(root, "etc", etc))
    call(env, dirs.append(home, "user", user))
    call(env, dirs.append(user, "notes.txt", notes))
    return root, notes


def test_concurrent_local_appends_to_one_directory_both_land(env):
    """Regression: the local plane bypasses the serve loop, and two
    appends to one directory used to interleave read … commit, so the
    later commit dropped the earlier entry."""
    server, bullet = make_dir_server(env)
    root = call(env, server.create_directory())
    first = call(env, bullet.create(b"one", 1))
    second = call(env, bullet.create(b"two", 1))
    env.run(until=env.all_of([
        env.process(server.append(root, "local1", first)),
        env.process(server.append(root, "local2", second))]))
    assert call(env, server.list_names(root)) == ["local1", "local2"]


def test_lookup_path(env):
    dirs, bullet = make_dir_server(env)
    root, notes = build_tree(env, dirs, bullet)
    assert call(env, dirs.lookup_path(root, "home/user/notes.txt")) == notes
    assert call(env, dirs.lookup_path(root, "/home/user/notes.txt")) == notes


def test_lookup_path_empty_returns_root(env):
    dirs, bullet = make_dir_server(env)
    root, _ = build_tree(env, dirs, bullet)
    assert call(env, dirs.lookup_path(root, "")) == root
    assert call(env, dirs.lookup_path(root, "/")) == root


def test_lookup_path_through_file_rejected(env):
    dirs, bullet = make_dir_server(env)
    root, _ = build_tree(env, dirs, bullet)
    with pytest.raises(NotADirectoryError_):
        call(env, dirs.lookup_path(root, "home/user/notes.txt/deeper"))


def test_lookup_path_missing_component(env):
    dirs, bullet = make_dir_server(env)
    root, _ = build_tree(env, dirs, bullet)
    with pytest.raises(NotFoundError):
        call(env, dirs.lookup_path(root, "home/nobody/file"))


# ------------------------------------------------------------ versioning


def test_history_walks_version_chain(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    call(env, dirs.append(root, "a", cap))
    call(env, dirs.append(root, "b", cap))
    call(env, dirs.remove_entry(root, "a"))
    chain = call(env, dirs.history(root))
    assert len(chain) == 4  # empty, +a, +ab, +b
    # The oldest version decodes to the empty directory.
    oldest = call(env, bullet.read(chain[-1]))
    assert DirectoryRows.decode(oldest).rows == {}
    # The second-newest still contains both entries.
    prev = call(env, bullet.read(chain[1]))
    assert set(DirectoryRows.decode(prev).rows) == {"a", "b"}


def test_prune_history_deletes_old_versions(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    for i in range(5):
        call(env, dirs.append(root, f"n{i}", cap))
    files_before = bullet.incarnation.table.live_count
    deleted = call(env, dirs.prune_history(root, keep=1))
    assert deleted == 5
    assert bullet.incarnation.table.live_count == files_before - 5
    # The current version still works.
    assert len(call(env, dirs.list_names(root))) == 5


def test_history_after_a_prune_returns_the_kept_versions(env):
    """The oldest kept version still names its deleted predecessor; the
    walk stops there — also when the predecessor's object number has
    since been reincarnated and the old capability no longer verifies."""
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    cap = call(env, bullet.create(b"x", p_factor=1))
    for i in range(4):
        call(env, dirs.append(root, f"n{i}", cap))
    before = call(env, dirs.history(root))
    assert call(env, dirs.prune_history(root, keep=2)) == 3
    assert call(env, dirs.history(root)) == before[:2]
    # Reuse the freed object numbers: the dangling link now fails its
    # capability check instead of NotFound.
    reused = [call(env, bullet.create(b"other", p_factor=1)) for _ in range(3)]
    assert before[2].object in {c.object for c in reused}
    assert call(env, dirs.history(root)) == before[:2]
    assert call(env, dirs.prune_history(root, keep=2)) == 0


def test_prune_keep_zero_rejected(env):
    dirs, _ = make_dir_server(env)
    root = call(env, dirs.create_directory())
    with pytest.raises(BadRequestError):
        call(env, dirs.prune_history(root, keep=0))


# --------------------------------------------------------------- recovery


def test_directory_survives_reboot(env):
    dirs, bullet = make_dir_server(env)
    root, notes = build_tree(env, dirs, bullet)
    dirs.crash()
    # Same service name => same well-known port; capabilities stay valid.
    reborn = DirectoryServer(env, dirs.disk, LocalBulletStub(bullet),
                             small_testbed(), name="directory")
    count = env.run(until=env.process(reborn.boot()))
    assert count == 4
    root2 = Capability(port=reborn.port, object=root.object,
                       rights=root.rights, check=root.check)
    assert call(env, reborn.lookup_path(root2, "home/user/notes.txt")) == notes


def test_client_cache_validation_flow(env):
    """The §5 currency check: a cached file is stale exactly when the
    directory entry moved to a new capability."""
    from repro.client import CachingBulletClient, WorkstationCache

    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    v1 = call(env, bullet.create(b"version 1", p_factor=1))
    call(env, dirs.append(root, "doc", v1))

    client = CachingBulletClient(LocalBulletStub(bullet),
                                 WorkstationCache(1 << 16))
    data = call(env, client.read(v1))
    assert data == b"version 1"
    current, cap = call(env, client.lookup_validated(dirs, root, "doc", v1))
    assert current and cap == v1
    assert call(env, client.read(v1)) == b"version 1"
    assert client.hits == 1

    v2 = call(env, bullet.create(b"version 2", p_factor=1))
    call(env, dirs.replace(root, "doc", v2))
    current, cap = call(env, client.lookup_validated(dirs, root, "doc", v1))
    assert not current and cap == v2
    assert call(env, client.read(cap)) == b"version 2"
