"""The schedule-controlled rig the model checker steps.

A :class:`CheckRig` is one *real* Bullet deployment — RPC transport
over the shared Ethernet, mirrored virtual disks, a ``workers=N``
server with its FileLockTable, and K scripted clients — wrapped in a
transition relation the explorer can enumerate:

* every enabled transition has a stable string label (``c0``, ``crash``,
  ``lose:md1``, ...);
* :meth:`CheckRig.apply` executes one transition by running the sim
  until the corresponding process completes (not until quiescence —
  background replica writes still in flight at a transition boundary
  are exactly the window the fault transitions exist to hit);
* :meth:`CheckRig.state_key` hashes the reachable state so the explorer
  can prune revisits.

The state key deliberately abstracts away simulated time, cache LRU
order, and the capability-check memo (none affect which behaviors are
reachable — only when they happen), and hashes only *reachable* disk
state (the inode table plus every live extent) so runs that differ only
in dead bytes merge. See DESIGN.md §12.

Client programs are deterministic functions of (client index, step
index); all nondeterminism lives in the explorer's schedule choices, so
a recorded (label, tie-choice) trace replays exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from hashlib import sha256
from typing import Any, Dict, List, Optional, Tuple

from ..capability import Capability
from ..client import BulletClient
from ..core import BulletServer
from ..core.compaction import compact_disk
from ..core.inode import InodeTable
from ..core.lockset import (
    LocksetChecker,
    RaceReport,
    activate,
    active_checker,
    deactivate,
)
from ..disk import MirroredDiskSet, VirtualDisk
from ..errors import (
    ConsistencyError,
    DeadlockError,
    DiskIOError,
    NoSpaceError,
    NotFoundError,
    ReproError,
    RpcTimeoutError,
    ServerDownError,
)
from ..net import Ethernet, RpcTransport
from ..profiles import BulletProfile, CpuProfile, DiskProfile, EthernetProfile, Testbed
from ..sim import Environment
from ..units import MB
from .refmodel import RefModel

__all__ = ["Scope", "CheckRig", "InvariantViolation", "TransitionRecord",
           "check_scope"]


class InvariantViolation(ConsistencyError):
    """An explored state broke one of the checked invariant families.

    ``family`` is one of ``"durability"`` (a confirmed file is not
    online despite fewer than `tolerance` replica failures — snippet 1's
    ``AllFilesOnline``), ``"locks"`` (leaked grant, reader/writer
    overlap, waits-for cycle, or a runtime RaceReport/DeadlockError),
    or ``"linearizability"`` (a completed client op disagrees with the
    RefModel oracle).
    """

    def __init__(self, family: str, message: str):
        super().__init__(f"[{family}] {message}")
        self.family = family
        self.message = message


@dataclass(frozen=True)
class TransitionRecord:
    """One replayable schedule choice: a transition label plus the tie
    choices taken at the kernel's scheduling choice points during it."""

    label: str
    ties: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Scope:
    """Bounds of one small-scope exploration (all budgets, not counts:
    the explorer chooses *where* to spend them)."""

    clients: int = 2
    ops_per_client: int = 3
    crashes: int = 1
    replica_losses: int = 0
    repairs: int = 0
    compactions: int = 0
    n_disks: int = 2
    p_factor: int = 2
    #: The failure tolerance the durability invariant asserts: every
    #: confirmed file must survive < tolerance replica failures. None
    #: means "what replication actually provides" (= p_factor); setting
    #: it *above* p_factor models a spec/implementation mismatch — the
    #: deliberately-broken configuration the acceptance counterexample
    #: uses (claim 2-fault tolerance while writing P-FACTOR 1).
    tolerance: Optional[int] = None
    workers: int = 2
    #: False: each client op is one atomic transition (issue + await).
    #: True: ops split into ``c0.go``/``c0.wait`` so requests overlap in
    #: the worker pool and faults can hit mid-flight.
    overlap: bool = False
    #: How many kernel scheduling choice points (heap ties) per
    #: transition the explorer may deviate from insertion order. 0 keeps
    #: the reference schedule.
    tie_depth: int = 0
    max_depth: Optional[int] = None
    payload_bytes: int = 512
    #: "" | "leak" (a read grant is taken and never released) |
    #: "corrupt" (one cached byte is flipped) — test-only fault
    #: transitions for exercising the locks / linearizability families.
    inject: str = ""

    @property
    def tolerance_effective(self) -> int:
        return self.p_factor if self.tolerance is None else self.tolerance

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scope":
        return cls(**data)


#: Per-client op cycle: every client CREATEs first so targets exist.
_OP_CYCLE = ("create", "read", "modify", "delete")


@dataclass(frozen=True)
class OpSpec:
    """One scripted client operation, fully determined by (client,
    step): the only free choices in the system are the explorer's."""

    kind: str
    size: int
    target_index: int
    offset: int
    delete_bytes: int
    insert: bytes


def op_spec(scope: Scope, client: int, step: int) -> OpSpec:
    kind = _OP_CYCLE[step % len(_OP_CYCLE)]
    size = scope.payload_bytes + 16 * client + step
    return OpSpec(kind=kind, size=size, target_index=client + step,
                  offset=3 * client + step, delete_bytes=client + 2 * step,
                  insert=b"MC%d.%d" % (client, step))


def _payload(client: int, step: int, size: int) -> bytes:
    stamp = b"c%d op%d " % (client, step)
    return (stamp * (size // len(stamp) + 1))[:size]


#: A deliberately tiny testbed: 4 MB disks and 32 inodes keep volume
#: format/scan/digest inside a few hundred microseconds per transition,
#: which is what makes exhausting thousands of interleavings practical.
_MC_DISK = DiskProfile(name="mc-disk", capacity_bytes=4 * MB, cylinders=32,
                       heads=2, sectors_per_track=32)
_MC_BULLET = BulletProfile(ram_bytes=2 * MB, reserved_ram_bytes=1 * MB,
                           inode_count=32, rnode_count=16,
                           default_p_factor=2)


def check_testbed(scope: Scope) -> Testbed:
    return Testbed(disk=_MC_DISK,
                   bullet=replace(_MC_BULLET, default_p_factor=scope.p_factor))


class _TieRecorder:
    """The kernel tie-hook driver: consumes a prescribed choice vector
    (padding with 0 = reference order), or draws choices from a seeded
    stream in random-walk mode. Records the candidate count at every
    consulted choice point and the choice actually taken, so the
    explorer can enumerate the siblings and replay the walk."""

    def __init__(self) -> None:
        self.script: Tuple[int, ...] = ()
        self.rng: Any = None
        self.limit: int = 0
        self.counts: List[int] = []
        self.chosen: List[int] = []

    def begin(self, script: Tuple[int, ...], rng: Any, limit: int) -> None:
        self.script = script
        self.rng = rng
        self.limit = limit
        self.counts = []
        self.chosen = []

    def __call__(self, tied: List[tuple]) -> int:
        position = len(self.counts)
        self.counts.append(len(tied))
        if position < len(self.script):
            choice = self.script[position]
        elif self.rng is not None and position < self.limit:
            choice = self.rng.randint(0, len(tied) - 1)
        else:
            choice = 0
        if choice >= len(tied):
            choice = 0
        self.chosen.append(choice)
        return choice


class CheckRig:
    """One real deployment plus the transition relation over it."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.testbed = check_testbed(scope)
        # Every explored path runs under a fresh Eraser-style lockset
        # checker (cross-checking the lock plane at every transition) on
        # the reference kernel. Installing the tie hook is what selects
        # it: the fast paths would collapse the very same-instant
        # interleavings the hook exists to permute, so the kernel turns
        # them off whenever a hook is present.
        self._previous_checker = active_checker()
        activate(LocksetChecker())
        env = self.env = Environment()
        self._ties = _TieRecorder()
        env.set_tie_hook(self._ties)
        self.eth = Ethernet(env, EthernetProfile())
        self.rpc = RpcTransport(env, self.eth, CpuProfile())
        self.disks = [VirtualDisk(env, self.testbed.disk, name=f"md{i}")
                      for i in range(scope.n_disks)]
        self.mirror = MirroredDiskSet(env, self.disks)
        self.server = BulletServer(env, self.mirror, self.testbed,
                                   transport=self.rpc, workers=scope.workers,
                                   name="bullet")
        self.server.format()
        env.run(until=env.process(self.server.boot()))
        self.layout = self.server.incarnation.layout
        # A generous client timeout (no retry policy): a call caught by
        # a crash must surface as an error, not hang the stepper or get
        # silently re-executed.
        self.clients = [
            BulletClient(env, self.rpc, self.server.port, timeout=2.0,
                         name=f"mc{c}")
            for c in range(scope.clients)
        ]
        self.oracle = RefModel()
        self.booted = True
        self.pc = [0] * scope.clients
        self.outstanding: List[Optional[Dict[str, Any]]] = (
            [None] * scope.clients)
        self.crashes_used = 0
        self.losses_used = 0
        self.repairs_used = 0
        self.compactions_used = 0
        self.injected: List[str] = []
        #: Crash-window bookkeeping for the linearizability oracle.
        self.pending_deletes: Dict[Capability, int] = {}
        self.maybe_orphans = 0
        self.had_timeout = False

    # ------------------------------------------------------- transitions

    def enabled(self) -> List[str]:
        """Enabled transition labels, in a canonical deterministic
        order (the explorer's child order and the trace vocabulary)."""
        scope = self.scope
        labels: List[str] = []
        for c in range(scope.clients):
            if scope.overlap:
                if self.outstanding[c] is not None:
                    labels.append(f"c{c}.wait")
                elif self.booted and self.pc[c] < scope.ops_per_client:
                    labels.append(f"c{c}.go")
            elif self.booted and self.pc[c] < scope.ops_per_client:
                labels.append(f"c{c}")
        if self.booted and self.compactions_used < scope.compactions:
            labels.append("compact")
        if self.booted and self.crashes_used < scope.crashes:
            labels.append("crash")
        if not self.booted and any(not d.failed for d in self.disks):
            labels.append("restart")
        live = sum(not d.failed for d in self.disks)
        for i, disk in enumerate(self.disks):
            if (not disk.failed and live > 1
                    and self.losses_used < scope.replica_losses):
                labels.append(f"lose:md{i}")
        for i, disk in enumerate(self.disks):
            if (disk.failed and live > 0
                    and self.repairs_used < scope.repairs):
                labels.append(f"repair:md{i}")
        if self.booted and scope.inject and scope.inject not in self.injected:
            if scope.inject == "leak":
                labels.append("inject:leak")
            elif scope.inject == "corrupt" and self._corrupt_target() is not None:
                labels.append("inject:corrupt")
        return labels

    def apply(self, label: str, ties: Tuple[int, ...] = (),
              rng: Any = None) -> Tuple[int, ...]:
        """Execute one transition, then check the per-state invariant
        families. Returns the tie choices actually taken (== ``ties``
        padded with reference choices, or the walk's random draws), for
        the trace record. Raises :class:`InvariantViolation`."""
        self._ties.begin(tuple(ties), rng,
                         self.scope.tie_depth if rng is not None else 0)
        try:
            self._step(label)
        except InvariantViolation:
            raise
        except (RaceReport, DeadlockError) as exc:
            raise InvariantViolation(
                "locks", f"{type(exc).__name__} during {label!r}: {exc}"
            ) from exc
        except RuntimeError as exc:
            if "deadlock" not in str(exc):
                raise
            raise InvariantViolation(
                "locks", f"scheduler deadlock during {label!r}: {exc}"
            ) from exc
        self.check_invariants()
        return tuple(self._ties.chosen)

    def _step(self, label: str) -> None:
        if label == "crash":
            self.crashes_used += 1
            self.server.crash()
            self.booted = False
            self.oracle.crash()
        elif label == "restart":
            self.env.run(until=self.env.process(self.server.boot()))
            self.booted = True
        elif label == "compact":
            self.compactions_used += 1
            self.env.run(until=self.env.process(compact_disk(self.server)))
        elif label.startswith("lose:"):
            self.losses_used += 1
            self._disk(label[5:]).fail("modelcheck replica loss")
        elif label.startswith("repair:"):
            self.repairs_used += 1
            target = self._disk(label[7:])
            self.env.run(until=self.env.process(self.mirror.recover(target)))
        elif label == "inject:leak":
            self.injected.append("leak")
            # A read grant on an unused high inode number, never
            # released — the canonical lock-plane bug. The key is
            # unused so no client op wedges on it; the leak is caught
            # by the leaked-grant check at quiesced leaves.
            self.server.incarnation.locks.reading(
                self.testbed.bullet.inode_count - 1).__enter__()
        elif label == "inject:corrupt":
            self.injected.append("corrupt")
            rnode = self._corrupt_target()
            if rnode is None:
                raise ConsistencyError("inject:corrupt enabled with no target")
            # A RAM bit flip in the cache: the disks stay correct (so
            # durability holds) but a READ served from cache returns
            # bytes the oracle never wrote — a linearizability break.
            rnode.data = bytes([rnode.data[0] ^ 0xFF]) + rnode.data[1:]
        elif label.startswith("c"):
            name = label[1:]
            if name.endswith(".go"):
                self._op_go(int(name[:-3]))
            elif name.endswith(".wait"):
                self._op_wait(int(name[:-5]))
            else:
                self._op_go(int(name))
                self._op_wait(int(name))
        else:
            raise ValueError(f"unknown transition label {label!r}")

    def _disk(self, name: str) -> VirtualDisk:
        for disk in self.disks:
            if disk.name == name:
                return disk
        raise ValueError(f"unknown disk {name!r}")

    def _corrupt_target(self) -> Optional[Any]:
        """The cached rnode of the first confirmed, non-empty file, in
        oracle order (deterministic); None when nothing is resident."""
        if not self.booted:
            return None
        for cap, data in self.oracle.confirmed_files():
            if not data:
                continue
            rnode = self.server.incarnation.cache.peek(cap.object)
            if rnode is not None and rnode.data:
                return rnode
        return None

    # -------------------------------------------------------- client ops

    def _op_go(self, client: int) -> None:
        scope = self.scope
        step = self.pc[client]
        self.pc[client] += 1
        spec = op_spec(scope, client, step)
        info: Dict[str, Any] = {"kind": spec.kind, "client": client,
                                "step": step}
        if spec.kind == "create":
            payload = _payload(client, step, spec.size)
            info["payload"] = payload
            gen = self.clients[client].create(payload, scope.p_factor)
        else:
            target = self.oracle.pick(spec.target_index)
            if target is None:
                # Nothing to operate on: the op degenerates to a no-op
                # transition (same state, pc advanced — pruned upstream).
                self.outstanding[client] = {"kind": "noop", "proc": None}
                return
            info["target"] = target
            info["data"] = self.oracle.data(target)
            if spec.kind == "read":
                gen = self.clients[client].read(target)
            elif spec.kind == "delete":
                self.pending_deletes[target] = (
                    self.pending_deletes.get(target, 0) + 1)
                gen = self.clients[client].delete(target)
            else:
                offset, delete_bytes = RefModel.clamp_modify(
                    len(info["data"]), spec.offset, spec.delete_bytes)
                info["offset"] = offset
                info["delete_bytes"] = delete_bytes
                info["insert"] = spec.insert
                gen = self.clients[client].modify(
                    target, offset, delete_bytes, spec.insert, scope.p_factor)
        info["proc"] = self.env.process(self._run_op(gen))
        self.outstanding[client] = info

    @staticmethod
    def _run_op(gen: Any):
        """Wrap a client call so the op process always *succeeds* with a
        (status, value) pair — errors are data for the oracle, not
        unhandled process failures."""
        try:
            result = yield from gen
        except ReproError as exc:
            return ("err", exc)
        return ("ok", result)

    def _op_wait(self, client: int) -> None:
        info = self.outstanding[client]
        if info is None:
            raise ConsistencyError(f"no outstanding op for client {client}")
        self.outstanding[client] = None
        if info["kind"] == "noop":
            return
        status, value = self.env.run(until=info["proc"])
        self._apply_outcome(info, status, value)

    def _apply_outcome(self, info: Dict[str, Any], status: str,
                       value: Any) -> None:
        kind = info["kind"]
        target: Optional[Capability] = info.get("target")
        if kind == "delete" and target is not None:
            count = self.pending_deletes.get(target, 0) - 1
            if count > 0:
                self.pending_deletes[target] = count
            else:
                self.pending_deletes.pop(target, None)
        if status == "err" and isinstance(
                value, (ServerDownError, RpcTimeoutError, DiskIOError)):
            # The call overlapped a fault: no usable reply. A crash eats
            # the answer (ServerDown/RpcTimeout); a replica dying
            # mid-write makes P-FACTOR legitimately unachievable and the
            # server reports DiskIOError. Either way CREATE/MODIFY may
            # have orphaned a file the oracle never learns about and
            # DELETE may have half-applied.
            self.had_timeout = True
            if kind in ("create", "modify"):
                self.maybe_orphans += 1
            elif kind == "delete" and target is not None:
                self.oracle.mark_uncertain(target)
            return
        confirmed = self.scope.p_factor >= 1
        if kind == "create":
            if status == "ok":
                self._oracle_create(value, info["payload"], confirmed)
            elif not isinstance(value, NoSpaceError):
                self._bad_reply(info, value)
        elif kind == "read" and target is not None:
            if status == "ok":
                if value != info["data"]:
                    raise InvariantViolation(
                        "linearizability",
                        f"READ of object {target.object} returned "
                        f"{value[:32]!r}... ({len(value)} bytes), oracle has "
                        f"{info['data'][:32]!r}... ({len(info['data'])} bytes)")
                self.oracle.resolve_present(target)
            elif isinstance(value, NotFoundError):
                self._absence_reply(info, target)
            else:
                self._bad_reply(info, value)
        elif kind == "delete" and target is not None:
            if status == "ok":
                if self.oracle.is_uncertain(target):
                    self.oracle.resolve_present(target)
                if target not in self.oracle:
                    raise InvariantViolation(
                        "linearizability",
                        f"DELETE of object {target.object} succeeded but the "
                        f"oracle already saw it deleted")
                self.oracle.delete(target)
            elif isinstance(value, NotFoundError):
                self._absence_reply(info, target)
            else:
                self._bad_reply(info, value)
        elif kind == "modify" and target is not None:
            if status == "ok":
                expected = RefModel.spliced(
                    info["data"], info["offset"], info["delete_bytes"],
                    info["insert"])
                self._oracle_create(value, expected, confirmed)
                self.oracle.resolve_present(target)
            elif isinstance(value, NotFoundError):
                self._absence_reply(info, target)
            elif not isinstance(value, NoSpaceError):
                self._bad_reply(info, value)

    def _oracle_create(self, cap: Any, data: bytes, confirmed: bool) -> None:
        if not isinstance(cap, Capability):
            raise InvariantViolation(
                "linearizability", f"CREATE/MODIFY returned {cap!r}, "
                f"not a capability")
        if self.oracle.known(cap):
            raise InvariantViolation(
                "linearizability",
                f"server returned an already-issued capability "
                f"(object {cap.object})")
        self.oracle.create(cap, data, confirmed=confirmed)

    def _absence_reply(self, info: Dict[str, Any], target: Capability) -> None:
        """A NOT_FOUND reply is linearizable only if absence was
        plausible at some instant the op was in flight."""
        if (self.oracle.absence_plausible(target)
                or self.pending_deletes.get(target, 0) > 0):
            if self.oracle.is_uncertain(target):
                self.oracle.resolve_absent(target)
            return
        raise InvariantViolation(
            "linearizability",
            f"{info['kind'].upper()} of object {target.object} reported "
            f"NOT_FOUND but the oracle holds it live with no delete in "
            f"flight")

    def _bad_reply(self, info: Dict[str, Any], value: Any) -> None:
        raise InvariantViolation(
            "linearizability",
            f"{info['kind'].upper()} failed unexpectedly: "
            f"{type(value).__name__}: {value}")

    # --------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """The per-state families: AllFilesOnline + lock-plane safety.
        (Linearizability is checked as op outcomes arrive.)"""
        from .invariants import check_durability, check_lock_plane
        check_durability(self)
        check_lock_plane(self)

    def finalize(self) -> None:
        """Leaf checks that need quiescence: drain the sim, consume any
        still-outstanding ops, then assert no grant outlives its op and
        every confirmed file reads back byte-correct."""
        self.env.run(None)
        for client in range(self.scope.clients):
            if self.outstanding[client] is not None:
                self._op_wait(client)
        self.check_invariants()
        if not self.booted:
            return
        held = self.server.incarnation.locks.held_keys()
        if held:
            raise InvariantViolation(
                "locks", f"grants leaked at quiescence: inodes {held}")
        for cap, data in self.oracle.confirmed_files():
            try:
                got = self.env.run(
                    until=self.env.process(
                        self._run_op(self.clients[0].read(cap))))
            except RuntimeError as exc:
                raise InvariantViolation(
                    "locks",
                    f"scheduler deadlock during leaf readback: {exc}"
                ) from exc
            status, value = got
            if status == "err" or value != data:
                raise InvariantViolation(
                    "linearizability",
                    f"leaf readback of confirmed object {cap.object} got "
                    f"{value!r:.64}, oracle has {len(data)} bytes")

    def teardown(self) -> None:
        """Restore the lockset checker that was active before this rig
        claimed the slot. The :class:`~repro.modelcheck.Explorer` does
        its own save/restore around a whole exploration; call this when
        driving a bare rig directly (e.g. a replay test)."""
        if self._previous_checker is not None:
            activate(self._previous_checker)
        else:
            deactivate()

    # ---------------------------------------------------------- state key

    def state_key(self) -> str:
        """Replay-stable digest of the reachable state (see module
        docstring for what is deliberately excluded; secrets enter as
        aliases, DESIGN.md §12c)."""
        aliases: Dict[int, int] = {}
        h = sha256()
        h.update(repr((
            tuple(self.pc),
            tuple(None if o is None else o["kind"] for o in self.outstanding),
            self.booted,
            self.crashes_used, self.losses_used, self.repairs_used,
            self.compactions_used, tuple(self.injected),
            self.maybe_orphans, self.had_timeout,
            tuple(sorted((cap.object, n)
                         for cap, n in self.pending_deletes.items())),
            tuple(d.failed for d in self.disks),
            tuple(d.queue_depth for d in self.disks),
            len(self.env._heap),
        )).encode())
        for disk in self.disks:
            h.update(self._disk_digest(disk, aliases))
        h.update(self.oracle.digest(aliases).encode())
        if self.booted:
            incarnation = self.server.incarnation
            for key, lock in sorted(incarnation.locks._locks.items()):
                h.update(repr((key, len(lock.readers),
                               lock.writer is not None,
                               len(lock.queue))).encode())
            for number, _inode in incarnation.table.live_inodes():
                rnode = incarnation.cache.peek(number)
                if rnode is not None:
                    h.update(repr((number,
                                   sha256(rnode.data).hexdigest())).encode())
        return h.hexdigest()

    def _disk_digest(self, disk: VirtualDisk, aliases: Dict[int, int]) -> bytes:
        """Digest of one replica's *reachable* durable state: every live
        inode, its secret aliased, and its extent (dead blocks are
        unreachable — nothing the server can do ever reads them)."""
        raw = disk.read_raw(0, self.layout.inode_table_blocks)
        table = InodeTable.decode(raw, disk.block_size)
        h = sha256()
        for number, inode in table.live_inodes():
            alias = aliases.setdefault(inode.secret, len(aliases) + 1)
            h.update(repr((number, alias, inode.start_block,
                           inode.size)).encode())
            blocks = self.layout.blocks_for(inode.size)
            if blocks:
                h.update(disk.read_raw(inode.start_block, blocks)[:inode.size])
        return h.digest()


def check_scope(scope: Scope) -> None:
    """Reject scopes the stepper cannot faithfully execute."""
    if scope.clients < 1:
        raise ValueError("scope needs at least one client")
    if scope.n_disks < 1:
        raise ValueError("scope needs at least one disk")
    if not 0 <= scope.p_factor <= scope.n_disks:
        raise ValueError(
            f"p_factor {scope.p_factor} impossible with {scope.n_disks} disks")
    if scope.tolerance is not None and scope.tolerance > scope.n_disks:
        raise ValueError("tolerance cannot exceed the replica count")
    if scope.inject not in ("", "leak", "corrupt"):
        raise ValueError(f"unknown injection {scope.inject!r}")
