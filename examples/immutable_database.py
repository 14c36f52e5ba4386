#!/usr/bin/env python3
"""A database subdivided over many small immutable files (§2).

"Data bases can be subdivided over many smaller Bullet files, for
example based on the identifying keys."

A persistent B-tree written against the client API, carried here
because this example is its one consumer: every node is one immutable
Bullet file, every update **path-copies** the nodes on the root-to-leaf
path and yields a *new root capability*. Consequences, all for free:

* every committed root is an immutable, consistent snapshot — readers
  are never blocked or disturbed;
* version history = the sequence of root capabilities (bind the current
  one in the directory service, the chain keeps the rest);
* crash safety = the directory's atomic replace.

Deletes are *lazy* (no rebalancing — underfull leaves are allowed and
empty ones are unlinked). Superseded nodes become unreachable and are
reclaimed by the GC sweep (object aging) via
:meth:`ImmutableBTree.collect_caps`.

Run:  python examples/immutable_database.py
"""

import bisect
from dataclasses import dataclass, field
from typing import Optional

from repro import (
    DEFAULT_TESTBED,
    BulletServer,
    DirectoryServer,
    Environment,
    LocalBulletStub,
    MirroredDiskSet,
    VirtualDisk,
    gc_sweep,
    run_process,
)
from repro.capability import CAP_WIRE_SIZE, Capability
from repro.errors import BadRequestError, ConsistencyError, NotFoundError

# ------------------------------------------------------- node encoding

_LEAF_MAGIC = 0xB7EE1EAF
_INTERNAL_MAGIC = 0xB7EE0000


@dataclass
class LeafNode:
    """Sorted (key, value) pairs; keys and values are bytes."""

    keys: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def encode(self) -> bytes:
        parts = [_LEAF_MAGIC.to_bytes(4, "big"),
                 len(self.keys).to_bytes(4, "big")]
        for key, value in zip(self.keys, self.values):
            parts.append(len(key).to_bytes(2, "big"))
            parts.append(key)
            parts.append(len(value).to_bytes(4, "big"))
            parts.append(value)
        return b"".join(parts)

    @classmethod
    def decode_body(cls, data: bytes) -> "LeafNode":
        count = int.from_bytes(data[4:8], "big")
        keys, values = [], []
        offset = 8
        for _ in range(count):
            klen = int.from_bytes(data[offset:offset + 2], "big")
            offset += 2
            keys.append(bytes(data[offset:offset + klen]))
            offset += klen
            vlen = int.from_bytes(data[offset:offset + 4], "big")
            offset += 4
            values.append(bytes(data[offset:offset + vlen]))
            offset += vlen
        return cls(keys=keys, values=values)


@dataclass
class InternalNode:
    """``len(children) == len(separators) + 1``; keys < separators[i]
    descend into children[i]."""

    separators: list = field(default_factory=list)   # bytes keys
    children: list = field(default_factory=list)     # Capability per child

    def encode(self) -> bytes:
        parts = [_INTERNAL_MAGIC.to_bytes(4, "big"),
                 len(self.separators).to_bytes(4, "big")]
        for sep in self.separators:
            parts.append(len(sep).to_bytes(2, "big"))
            parts.append(sep)
        for child in self.children:
            parts.append(child.pack())
        return b"".join(parts)

    @classmethod
    def decode_body(cls, data: bytes) -> "InternalNode":
        count = int.from_bytes(data[4:8], "big")
        separators = []
        offset = 8
        for _ in range(count):
            klen = int.from_bytes(data[offset:offset + 2], "big")
            offset += 2
            separators.append(bytes(data[offset:offset + klen]))
            offset += klen
        children = []
        for _ in range(count + 1):
            children.append(Capability.unpack(data[offset:offset + CAP_WIRE_SIZE]))
            offset += CAP_WIRE_SIZE
        return cls(separators=separators, children=children)


def decode_node(data: bytes):
    """Decode either node kind from its file bytes."""
    if len(data) < 8:
        raise ConsistencyError("B-tree node file truncated")
    magic = int.from_bytes(data[0:4], "big")
    if magic == _LEAF_MAGIC:
        return LeafNode.decode_body(data)
    if magic == _INTERNAL_MAGIC:
        return InternalNode.decode_body(data)
    raise ConsistencyError(f"not a B-tree node (magic {magic:#x})")


# ------------------------------------------------------------ the tree


class ImmutableBTree:
    """Handle for operating on trees stored via a Bullet stub.

    The handle is stateless with respect to tree contents: every
    operation takes and/or returns root capabilities, so any number of
    tree versions coexist.
    """

    def __init__(self, bullet_stub, fanout: int = 32, p_factor: int = 1):
        if fanout < 4:
            raise BadRequestError("fanout must be at least 4")
        self.bullet = bullet_stub
        self.env = bullet_stub.env
        self.fanout = fanout
        self.p_factor = p_factor

    # ------------------------------------------------------------ plumbing

    def _load(self, cap: Capability):
        data = yield from self.bullet.read(cap)
        return decode_node(data)

    def _store(self, node):
        return (yield from self.bullet.create(node.encode(), self.p_factor))

    # ------------------------------------------------------------- create

    def empty(self):
        """Process: a fresh empty tree; returns its root capability."""
        return (yield from self._store(LeafNode()))

    # -------------------------------------------------------------- reads

    def get(self, root: Capability, key: bytes):
        """Process: the value for ``key``; NotFoundError if absent."""
        node = yield from self._load(root)
        while isinstance(node, InternalNode):
            index = bisect.bisect_right(node.separators, key)
            node = yield from self._load(node.children[index])
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.values[index]
        raise NotFoundError(f"key {key!r} not in tree")

    def contains(self, root: Capability, key: bytes):
        """Process: membership test."""
        try:
            yield from self.get(root, key)
        except NotFoundError:
            return False
        return True

    def items(self, root: Capability, lo: Optional[bytes] = None,
              hi: Optional[bytes] = None):
        """Process: sorted (key, value) pairs with lo <= key < hi."""
        out = []
        yield from self._collect_items(root, lo, hi, out)
        return out

    def _collect_items(self, cap: Capability, lo, hi, out):
        node = yield from self._load(cap)
        if isinstance(node, LeafNode):
            for key, value in zip(node.keys, node.values):
                if (lo is None or key >= lo) and (hi is None or key < hi):
                    out.append((key, value))
            return
        for index, child in enumerate(node.children):
            # Prune subtrees wholly outside the range.
            if lo is not None and index < len(node.separators) \
                    and node.separators[index] <= lo:
                continue
            if hi is not None and index > 0 and node.separators[index - 1] >= hi:
                break
            yield from self._collect_items(child, lo, hi, out)

    def height(self, root: Capability):
        """Process: tree height (leaf-only tree has height 1)."""
        node = yield from self._load(root)
        levels = 1
        while isinstance(node, InternalNode):
            node = yield from self._load(node.children[0])
            levels += 1
        return levels

    # ------------------------------------------------------------- writes

    def insert(self, root: Capability, key: bytes, value: bytes):
        """Process: a new root with ``key`` bound to ``value`` (existing
        binding replaced). The old root remains a valid snapshot."""
        if not isinstance(key, (bytes, bytearray)):
            raise BadRequestError("keys must be bytes")
        result = yield from self._insert_into(root, bytes(key), bytes(value))
        new_cap, split = result
        if split is None:
            return new_cap
        sep, right_cap = split
        return (yield from self._store(
            InternalNode(separators=[sep], children=[new_cap, right_cap])
        ))

    def _insert_into(self, cap: Capability, key: bytes, value: bytes):
        node = yield from self._load(cap)
        if isinstance(node, LeafNode):
            keys = list(node.keys)
            values = list(node.values)
            index = bisect.bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                values[index] = value
            else:
                keys.insert(index, key)
                values.insert(index, value)
            if len(keys) <= self.fanout:
                new_cap = yield from self._store(LeafNode(keys, values))
                return new_cap, None
            mid = len(keys) // 2
            left = LeafNode(keys[:mid], values[:mid])
            right = LeafNode(keys[mid:], values[mid:])
            left_cap = yield from self._store(left)
            right_cap = yield from self._store(right)
            return left_cap, (right.keys[0], right_cap)
        # Internal node: recurse, path-copying.
        index = bisect.bisect_right(node.separators, key)
        child_cap, split = yield from self._insert_into(
            node.children[index], key, value)
        separators = list(node.separators)
        children = list(node.children)
        children[index] = child_cap
        if split is not None:
            sep, right_cap = split
            separators.insert(index, sep)
            children.insert(index + 1, right_cap)
        if len(children) <= self.fanout:
            new_cap = yield from self._store(InternalNode(separators, children))
            return new_cap, None
        mid = len(separators) // 2
        push_up = separators[mid]
        left = InternalNode(separators[:mid], children[:mid + 1])
        right = InternalNode(separators[mid + 1:], children[mid + 1:])
        left_cap = yield from self._store(left)
        right_cap = yield from self._store(right)
        return left_cap, (push_up, right_cap)

    def delete(self, root: Capability, key: bytes):
        """Process: a new root without ``key`` (NotFoundError if absent).

        Lazy: leaves may go underfull; an empty leaf is unlinked from
        its parent; the root collapses when reduced to one child.
        """
        new_cap = yield from self._delete_from(root, bytes(key))
        if new_cap is None:
            # The whole tree emptied out.
            return (yield from self.empty())
        node = yield from self._load(new_cap)
        while isinstance(node, InternalNode) and len(node.children) == 1:
            new_cap = node.children[0]
            node = yield from self._load(new_cap)
        return new_cap

    def _delete_from(self, cap: Capability, key: bytes):
        """Returns the replacement capability, or None if the subtree
        became empty."""
        node = yield from self._load(cap)
        if isinstance(node, LeafNode):
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                raise NotFoundError(f"key {key!r} not in tree")
            keys = list(node.keys)
            values = list(node.values)
            del keys[index], values[index]
            if not keys:
                return None
            return (yield from self._store(LeafNode(keys, values)))
        index = bisect.bisect_right(node.separators, key)
        child_cap = yield from self._delete_from(node.children[index], key)
        separators = list(node.separators)
        children = list(node.children)
        if child_cap is None:
            del children[index]
            if separators:
                del separators[max(index - 1, 0)]
            if not children:
                return None
        else:
            children[index] = child_cap
        return (yield from self._store(InternalNode(separators, children)))

    # --------------------------------------------------------- maintenance

    def collect_caps(self, root: Capability):
        """Process: every node capability reachable from ``root`` — the
        extra root set handed to :func:`repro.gc.gc_sweep` so live tree
        nodes are touched and survive aging."""
        out = [root]
        node = yield from self._load(root)
        if isinstance(node, InternalNode):
            for child in node.children:
                out.extend((yield from self.collect_caps(child)))
        return out

    def node_count(self, root: Capability):
        """Process: number of node files in this tree version."""
        caps = yield from self.collect_caps(root)
        return len(caps)


# --------------------------------------------------------- the example


def main():
    env = Environment()
    disks = [VirtualDisk(env, DEFAULT_TESTBED.disk, name=f"d{i}") for i in (0, 1)]
    bullet = BulletServer(env, MirroredDiskSet(env, disks), DEFAULT_TESTBED)
    bullet.format()
    run_process(env, bullet.boot())
    stub = LocalBulletStub(bullet)
    dirs = DirectoryServer(env, VirtualDisk(env, DEFAULT_TESTBED.disk,
                                            name="dir-disk"),
                           stub, DEFAULT_TESTBED)
    dirs.format()
    run_process(env, dirs.boot())
    names = run_process(env, dirs.create_directory())

    tree = ImmutableBTree(stub, fanout=16)
    root = run_process(env, tree.empty())

    # --- Load a small employee table --------------------------------------
    people = {
        f"emp{i:03d}".encode(): f"name=Person{i};dept={i % 5}".encode()
        for i in range(120)
    }
    for key, value in people.items():
        root = run_process(env, tree.insert(root, key, value))
    run_process(env, dirs.append(names, "employees.db", root))
    nodes = run_process(env, tree.node_count(root))
    print(f"loaded {len(people)} records into {nodes} immutable node files, "
          f"height {run_process(env, tree.height(root))}")

    # --- Point and range queries ------------------------------------------
    print(f"\nemp042 -> {run_process(env, tree.get(root, b'emp042'))!r}")
    window = run_process(env, tree.items(root, lo=b"emp010", hi=b"emp015"))
    print("range emp010..emp015:")
    for key, value in window:
        print(f"  {key.decode()} -> {value.decode()}")

    # --- Snapshot semantics -------------------------------------------------
    snapshot = root
    root = run_process(env, tree.insert(root, b"emp042",
                                        b"name=Person42;dept=PROMOTED"))
    root = run_process(env, tree.delete(root, b"emp007"))
    run_process(env, dirs.replace(names, "employees.db", root))
    print("\nafter an update transaction (new root bound in the directory):")
    print(f"  current emp042 -> {run_process(env, tree.get(root, b'emp042'))!r}")
    print(f"  snapshot emp042 -> {run_process(env, tree.get(snapshot, b'emp042'))!r}")
    print(f"  snapshot still has emp007: "
          f"{run_process(env, tree.contains(snapshot, b'emp007'))}")

    # --- Garbage collection of unreachable node versions --------------------
    files_before = bullet.incarnation.table.live_count
    for _ in range(DEFAULT_TESTBED.bullet.max_lives + 1):
        current = root
        run_process(env, gc_sweep(
            bullet, [dirs],
            include_history=False,
            extra_collectors=[lambda: tree.collect_caps(current)],
        ))
    files_after = bullet.incarnation.table.live_count
    print(f"\nGC: {files_before} node files -> {files_after} "
          f"(old snapshots' exclusive nodes reclaimed; "
          f"live tree: {run_process(env, tree.node_count(root))} nodes)")
    assert run_process(env, tree.get(root, b"emp042")).endswith(b"PROMOTED")


if __name__ == "__main__":
    main()
