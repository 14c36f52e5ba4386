"""Tests for the immutable B-tree over Bullet files, including a
hypothesis model check against a plain dict and GC integration.

The tree is an application of the client API, not part of the library:
it lives in ``examples/immutable_database.py`` (its one consumer), and
these tests load it from there."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import Capability
from repro.client import LocalBulletStub
from repro.errors import BadRequestError, ConsistencyError, NotFoundError
from repro.sim import run_process

from conftest import make_bullet, small_testbed

_spec = importlib.util.spec_from_file_location(
    "immutable_database",
    Path(__file__).resolve().parent.parent / "examples" / "immutable_database.py")
_example = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_example)
ImmutableBTree = _example.ImmutableBTree
InternalNode = _example.InternalNode
LeafNode = _example.LeafNode
decode_node = _example.decode_node


@pytest.fixture
def tree_world(env):
    # Path-copying creates many short-lived node files; give the test
    # volume a roomy inode table (GC reclaims them in production).
    bullet = make_bullet(env, testbed=small_testbed(inode_count=4096))
    tree = ImmutableBTree(LocalBulletStub(bullet), fanout=4)
    root = run_process(env, tree.empty())
    return tree, root, bullet


def put(env, tree, root, pairs):
    for key, value in pairs:
        root = run_process(env, tree.insert(root, key, value))
    return root


# ------------------------------------------------------------- encoding


def test_leaf_roundtrip():
    leaf = LeafNode(keys=[b"a", b"b"], values=[b"1", bytes(1000)])
    decoded = decode_node(leaf.encode())
    assert decoded.keys == leaf.keys
    assert decoded.values == leaf.values


def test_internal_roundtrip():
    caps = [Capability(port=i, object=i, rights=0xFF, check=i) for i in (1, 2, 3)]
    node = InternalNode(separators=[b"m", b"t"], children=caps)
    decoded = decode_node(node.encode())
    assert decoded.separators == node.separators
    assert decoded.children == caps


def test_decode_garbage_rejected():
    with pytest.raises(ConsistencyError):
        decode_node(b"nonsense!")
    with pytest.raises(ConsistencyError):
        decode_node(b"x")


# ------------------------------------------------------------ basic ops


def test_insert_get(env, tree_world):
    tree, root, _ = tree_world
    root = put(env, tree, root, [(b"k1", b"v1"), (b"k2", b"v2")])
    assert run_process(env, tree.get(root, b"k1")) == b"v1"
    assert run_process(env, tree.get(root, b"k2")) == b"v2"


def test_get_missing(env, tree_world):
    tree, root, _ = tree_world
    with pytest.raises(NotFoundError):
        run_process(env, tree.get(root, b"ghost"))
    assert run_process(env, tree.contains(root, b"ghost")) is False


def test_insert_replaces_value(env, tree_world):
    tree, root, _ = tree_world
    root = put(env, tree, root, [(b"k", b"old"), (b"k", b"new")])
    assert run_process(env, tree.get(root, b"k")) == b"new"
    assert len(run_process(env, tree.items(root))) == 1


def test_persistence_old_roots_are_snapshots(env, tree_world):
    tree, root0, _ = tree_world
    root1 = run_process(env, tree.insert(root0, b"a", b"1"))
    root2 = run_process(env, tree.insert(root1, b"a", b"2"))
    root3 = run_process(env, tree.delete(root2, b"a"))
    assert run_process(env, tree.items(root0)) == []
    assert run_process(env, tree.get(root1, b"a")) == b"1"
    assert run_process(env, tree.get(root2, b"a")) == b"2"
    with pytest.raises(NotFoundError):
        run_process(env, tree.get(root3, b"a"))


def test_splits_grow_height(env, tree_world):
    tree, root, _ = tree_world
    assert run_process(env, tree.height(root)) == 1
    root = put(env, tree, root,
               [(f"{i:04d}".encode(), b"v") for i in range(50)])
    assert run_process(env, tree.height(root)) >= 3
    for i in range(50):
        assert run_process(env, tree.get(root, f"{i:04d}".encode())) == b"v"


def test_items_sorted_and_ranged(env, tree_world):
    tree, root, _ = tree_world
    import random
    ids = list(range(40))
    random.Random(5).shuffle(ids)
    root = put(env, tree, root,
               [(f"{i:03d}".encode(), str(i).encode()) for i in ids])
    pairs = run_process(env, tree.items(root))
    assert [k for k, _ in pairs] == sorted(k for k, _ in pairs)
    assert len(pairs) == 40
    window = run_process(env, tree.items(root, lo=b"010", hi=b"020"))
    assert [k for k, _ in window] == [f"{i:03d}".encode() for i in range(10, 20)]


def test_delete_and_empty_collapse(env, tree_world):
    tree, root, _ = tree_world
    root = put(env, tree, root,
               [(f"{i:02d}".encode(), b"v") for i in range(20)])
    for i in range(20):
        root = run_process(env, tree.delete(root, f"{i:02d}".encode()))
    assert run_process(env, tree.items(root)) == []
    assert run_process(env, tree.height(root)) == 1


def test_delete_missing_key(env, tree_world):
    tree, root, _ = tree_world
    root = put(env, tree, root, [(b"a", b"1")])
    with pytest.raises(NotFoundError):
        run_process(env, tree.delete(root, b"zz"))


def test_fanout_validation(env):
    bullet = make_bullet(env)
    with pytest.raises(BadRequestError):
        ImmutableBTree(LocalBulletStub(bullet), fanout=3)


def test_keys_must_be_bytes(env, tree_world):
    tree, root, _ = tree_world
    with pytest.raises(BadRequestError):
        run_process(env, tree.insert(root, "string key", b"v"))


# ---------------------------------------------------------- model check


@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=0, max_value=60),
            st.binary(max_size=8),
        ),
        max_size=50,
    )
)
@settings(max_examples=40, deadline=None)
def test_btree_matches_dict_model(script):
    from repro.sim import Environment

    env = Environment()
    bullet = make_bullet(env)
    tree = ImmutableBTree(LocalBulletStub(bullet), fanout=4)
    root = run_process(env, tree.empty())
    model: dict = {}
    for op, keynum, value in script:
        key = f"{keynum:03d}".encode()
        if op == "insert":
            root = run_process(env, tree.insert(root, key, value))
            model[key] = value
        elif key in model:
            root = run_process(env, tree.delete(root, key))
            del model[key]
    assert run_process(env, tree.items(root)) == sorted(model.items())
    for key, value in model.items():
        assert run_process(env, tree.get(root, key)) == value


# ------------------------------------------------------- GC integration


def test_gc_reclaims_superseded_nodes_keeps_live_tree(env):
    """Bind the current root in the directory; superseded interior
    nodes (unreachable) age out, the live tree survives via the
    collect_caps collector."""
    from repro.client import LocalBulletStub
    from repro.directory import DirectoryServer
    from repro.disk import VirtualDisk
    from repro.gc import gc_sweep
    from conftest import SMALL_DISK

    testbed = small_testbed(max_lives=2)
    bullet = make_bullet(env, testbed=testbed)
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), testbed)
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    names = run_process(env, dirs.create_directory())

    tree = ImmutableBTree(LocalBulletStub(bullet), fanout=4)
    root = run_process(env, tree.empty())
    for i in range(30):
        root = run_process(env, tree.insert(root, f"{i:02d}".encode(), b"v"))
    run_process(env, dirs.append(names, "db", root))

    live_nodes = run_process(env, tree.node_count(root))
    files_before = bullet.incarnation.table.live_count
    assert files_before > live_nodes  # superseded versions still around

    current_root = root
    for _ in range(testbed.bullet.max_lives + 1):
        run_process(env, gc_sweep(
            bullet, [dirs],
            extra_collectors=[lambda: tree.collect_caps(current_root)],
        ))
    # Exactly the live tree (+ directory version files) remains.
    assert bullet.incarnation.table.live_count < files_before
    pairs = run_process(env, tree.items(current_root))
    assert len(pairs) == 30
