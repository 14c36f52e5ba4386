"""Per-file readers–writer locks for the concurrent service plane.

The paper's server is single-threaded: "one request is handled at a
time", so CREATE/READ/DELETE and the 3 a.m. compaction job can never
interleave and no synchronization is needed. The moment the serve loop
becomes a worker pool (``BulletServer(workers=N)``), every invariant
that single-threading provided for free — an extent is never freed
under an in-flight READ, compaction never repoints an inode whose old
extent a reader is still following, a CREATE's background replica
writes land before anyone re-reads the extent from disk — must be
restored explicitly. This module is that mechanism.

:class:`FileLockTable` keys a readers–writer lock by inode number:

* **FIFO-fair**: grants are queued in arrival order; a reader arriving
  after a queued writer waits behind it, so writers cannot starve.
* **Scoped**: handlers take a lock as ``with table.reading(key) as
  lock: yield lock.grant`` (or ``writing``). The :class:`LockScope`
  releases whatever grant it owns when the block exits, on every edge
  out of it, so a leaked grant is not something a handler can write.
* **Sim-aware**: the grant is a :class:`LockGrant` event to ``yield``.
  An uncontended grant succeeds immediately (zero simulated time), so
  at ``workers=1`` the lock plane is timing-invisible and the
  paper-faithful figures are unchanged.
* **Crash-safe**: a holder interrupted mid-operation releases as the
  ``Interrupt`` unwinds its ``with`` block, and a waiter interrupted
  while still queued is cancelled by the same
  :meth:`FileLockTable.release` call.
* **Bounded**: a lock with no holders and no waiters is dropped from
  the table, so the table's size tracks the set of *contended or held*
  files, not every file ever touched.

Everything is deterministic: grants fire through the event heap, whose
ties break by insertion order.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from ..errors import ConsistencyError, DeadlockError
from ..obs import MetricsRegistry
from ..sim import Environment, Event
from ..sim.core import Process
from .lockset import active_checker

__all__ = ["LockGrant", "LockScope", "FileLockTable"]

#: Grant modes.
READ = "read"
WRITE = "write"


class LockGrant(Event):
    """One acquisition of a per-file lock.

    The grant *is* the event the acquirer yields on; once it fires the
    holder owns the lock in ``mode`` until it passes the grant back to
    :meth:`FileLockTable.release`.
    """

    __slots__ = ("key", "mode", "requested_at", "released", "owner")

    def __init__(self, env: Environment, key: int, mode: str):
        super().__init__(env)
        self.key = key
        self.mode = mode
        self.requested_at = env.now
        self.released = False
        #: The sim process that requested the grant (None when acquired
        #: from outside any process, e.g. direct test pokes). Feeds the
        #: waits-for graph and the runtime lockset checker.
        self.owner: Optional[Process] = env.active_process


class LockScope:
    """A ``with``-scoped hold on one file's lock.

    The scope owns at most one grant at a time and gives it back on
    exit, whether it is held or still queued (an ``Interrupt`` delivered
    while waiting unwinds the block like any other exception).
    """

    __slots__ = ("_table", "grant")

    def __init__(self, table: "FileLockTable", grant: LockGrant):
        self._table = table
        #: The grant to ``yield`` on; None once detached or exited.
        self.grant: Optional[LockGrant] = grant

    def __enter__(self) -> "LockScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        grant, self.grant = self.grant, None
        if grant is not None:
            self._table.release(grant)

    def _take(self) -> LockGrant:
        """The owned grant, leaving the scope empty."""
        grant, self.grant = self.grant, None
        if grant is None:
            raise ConsistencyError("lock scope owns no grant")
        return grant

    def upgrade(self) -> LockGrant:
        """Trade the read grant for a queued write grant on the same
        key and return it to ``yield`` on. Not atomic: other holders
        may run in between, so revalidate under the new grant."""
        read = self._take()
        self._table.release(read)
        self.grant = write = self._table._acquire(read.key, WRITE)
        return write

    def detach(self, new_owner: Optional[Process]) -> None:
        """Give the held grant to ``new_owner`` (CREATE's settle
        watcher), which takes it over with :meth:`FileLockTable.adopt`.
        Exiting this scope then releases nothing."""
        self._table.transfer(self._take(), new_owner)


class _FileLock:
    """State of one file's lock: active holders plus the FIFO queue."""

    __slots__ = ("readers", "writer", "queue")

    def __init__(self) -> None:
        self.readers: set[LockGrant] = set()
        self.writer: Optional[LockGrant] = None
        self.queue: deque[LockGrant] = deque()

    @property
    def idle(self) -> bool:
        return not self.readers and self.writer is None and not self.queue


class FileLockTable:
    """FIFO-fair readers–writer locks keyed by inode number."""

    def __init__(self, env: Environment,
                 metrics: Optional[MetricsRegistry] = None,
                 owner: str = "bullet"):
        self.env = env
        self._name = owner
        registry = metrics if metrics is not None else MetricsRegistry()
        self._locks: dict[int, _FileLock] = {}
        # Waits-for bookkeeping: which grant each queued process is
        # blocked on. One entry per process (a process yields on its
        # grant, so it can wait on at most one at a time). Checked for
        # cycles on every contended enqueue — see _find_cycle.
        self._waiting: dict[Process, LockGrant] = {}
        self._wait_hist = registry.histogram(
            "repro_lock_wait_seconds", server=owner)
        self._acquired = {
            mode: registry.counter(
                "repro_lock_acquisitions_total", server=owner, mode=mode)
            for mode in (READ, WRITE)
        }
        self._contended = registry.counter(
            "repro_lock_contention_total", server=owner)
        self._held = registry.gauge("repro_lock_held", server=owner)
        # Incrementally tracked count of keys with an active holder;
        # always equals len(held_keys()) but costs O(1) per transition
        # instead of a sort of the whole table per admit/release.
        self._held_count = 0

    # ------------------------------------------------------------ queries

    def held_keys(self) -> list[int]:
        """Inode numbers with an active holder (tests/monitoring)."""
        return sorted(
            key for key, lock in self._locks.items()
            if lock.readers or lock.writer is not None
        )

    def waiters(self, key: int) -> int:
        """Queued (not yet granted) acquisitions for ``key``."""
        lock = self._locks.get(key)
        return len(lock.queue) if lock is not None else 0

    def check_invariants(self) -> None:
        """Structural safety of the whole table; raises
        :class:`ConsistencyError` on the first violation.

        Checked (the model checker calls this at every explored state;
        tests call it directly):

        * no key has both readers and a writer, and no key holds two
          writers (the type makes the latter unrepresentable, but a
          released grant lingering as holder is not);
        * no *released* grant is still held or queued;
        * mode tags are well-formed and every grant is filed under its
          own key;
        * idle locks were reaped (``release`` drops empty entries);
        * ``_held_count`` matches the actual number of held keys;
        * every queued grant with an owner has a waits-for entry, and
          the waits-for graph over queued owners is acyclic (grants are
          admitted in FIFO order, so a cycle would wait forever).
        """
        held = 0
        for key, lock in self._locks.items():
            if lock.idle:
                raise ConsistencyError(
                    f"lock table retains idle entry for inode {key}")
            if lock.readers and lock.writer is not None:
                raise ConsistencyError(
                    f"inode {key} has {len(lock.readers)} reader(s) and a "
                    f"writer held simultaneously")
            if lock.readers or lock.writer is not None:
                held += 1
            holders: List[LockGrant] = list(lock.readers)
            if lock.writer is not None:
                holders.append(lock.writer)
            for grant in holders:
                if grant.released:
                    raise ConsistencyError(
                        f"released grant still held on inode {key}")
            for reader in lock.readers:
                if reader.mode != READ:
                    raise ConsistencyError(
                        f"non-read grant {reader.mode!r} among readers of "
                        f"inode {key}")
            if lock.writer is not None and lock.writer.mode != WRITE:
                raise ConsistencyError(
                    f"non-write grant {lock.writer.mode!r} holds the writer "
                    f"slot of inode {key}")
            for grant in list(lock.queue) + holders:
                if grant.key != key:
                    raise ConsistencyError(
                        f"grant for inode {grant.key} filed under inode {key}")
            for queued in lock.queue:
                if queued.released:
                    raise ConsistencyError(
                        f"released grant still queued on inode {key}")
                if queued.owner is not None and (
                        self._waiting.get(queued.owner) is not queued):
                    raise ConsistencyError(
                        f"queued grant on inode {key} missing from the "
                        f"waits-for map")
        if held != self._held_count:
            raise ConsistencyError(
                f"held-key count drifted: tracked {self._held_count}, "
                f"actual {held}")
        for proc in sorted(self._waiting, key=lambda p: p._serial):
            cycle = self._find_cycle(proc)
            if cycle is not None:
                raise ConsistencyError(
                    "waits-for graph has a cycle: " + _render_cycle(cycle))

    # ------------------------------------------------------------ acquire

    def reading(self, key: int) -> LockScope:
        """A scope requesting a shared grant on ``key``; ``yield`` its
        ``grant`` inside the ``with`` block to hold it."""
        return LockScope(self, self._acquire(key, READ))

    def writing(self, key: int) -> LockScope:
        """The same for an exclusive grant on ``key``."""
        return LockScope(self, self._acquire(key, WRITE))

    def adopt(self, grant: LockGrant) -> LockScope:
        """A scope over a held grant another scope detached to the
        calling process."""
        return LockScope(self, grant)

    def acquire_read(self, key: int) -> LockGrant:
        """A shared grant on ``key``; yields immediately when no writer
        holds or waits for the file."""
        return self._acquire(key, READ)

    def acquire_write(self, key: int) -> LockGrant:
        """An exclusive grant on ``key``."""
        return self._acquire(key, WRITE)

    def _acquire(self, key: int, mode: str) -> LockGrant:
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = _FileLock()
        grant = LockGrant(self.env, key, mode)
        admissible = (
            lock.writer is None and not lock.queue
            and (mode == READ or not lock.readers)
        )
        if admissible:
            self._admit(lock, grant)
        else:
            self._contended.inc()
            lock.queue.append(grant)
            if grant.owner is not None:
                self._waiting[grant.owner] = grant
                cycle = self._find_cycle(grant.owner)
                if cycle is not None:
                    # The grant can never be admitted: fail the acquire
                    # synchronously (before the caller ever yields) and
                    # leave the table exactly as it was.
                    lock.queue.remove(grant)
                    del self._waiting[grant.owner]
                    raise DeadlockError(_render_cycle(cycle))
        return grant

    def _admit(self, lock: _FileLock, grant: LockGrant) -> None:
        if grant.owner is not None:
            self._waiting.pop(grant.owner, None)
            checker = active_checker()
            if checker is not None:
                checker.on_acquire(grant.owner, self._name, grant.key)
        was_held = bool(lock.readers) or lock.writer is not None
        if grant.mode == READ:
            lock.readers.add(grant)
        else:
            lock.writer = grant
        if not was_held:
            self._held_count += 1
        self._acquired[grant.mode].inc()
        self._wait_hist.observe(self.env.now - grant.requested_at)
        self._held.set(self._held_count)
        # Fresh grants (the uncontended _acquire path) complete in
        # place; promoted waiters carry a suspended process's callback,
        # so try_finish_now declines and the grant goes via the heap.
        if not self.env.try_finish_now(grant, grant):
            grant.succeed(grant)

    # ----------------------------------------------------------- transfer

    def transfer(self, grant: LockGrant, new_owner: Optional[Process]) -> None:
        """Hand a *held* grant to another process
        (:meth:`LockScope.detach`: the CREATE settle watcher owns the new
        file's write grant from the moment it is forked). Waits-for
        edges and lockset holdings follow the new owner: without this,
        the creator would appear to block on itself the instant it
        re-reads the file it just created."""
        old = grant.owner
        if old is new_owner:
            return
        checker = active_checker()
        if checker is not None:
            if old is not None:
                checker.on_release(old, self._name, grant.key)
            if new_owner is not None:
                checker.on_acquire(new_owner, self._name, grant.key)
        grant.owner = new_owner

    # ------------------------------------------------------------ release

    def release(self, grant: LockGrant) -> None:
        """Give back a grant: active holder, or a queued waiter that was
        interrupted before its turn. Idempotent per grant."""
        if grant.released:
            return
        grant.released = True
        lock = self._locks.get(grant.key)
        if lock is None:
            raise ConsistencyError(
                f"release of unknown lock key {grant.key}")
        was_held = True
        if grant in lock.readers:
            lock.readers.discard(grant)
            if not lock.readers and lock.writer is None:
                self._held_count -= 1
        elif lock.writer is grant:
            lock.writer = None
            self._held_count -= 1
        else:
            was_held = False
            try:
                lock.queue.remove(grant)
            except ValueError:
                raise ConsistencyError(
                    f"grant for inode {grant.key} is neither held nor queued"
                ) from None
            if grant.owner is not None:
                self._waiting.pop(grant.owner, None)
        if was_held and grant.owner is not None:
            checker = active_checker()
            if checker is not None:
                checker.on_release(grant.owner, self._name, grant.key)
        self._promote(lock)
        if lock.idle:
            del self._locks[grant.key]
        self._held.set(self._held_count)

    def _promote(self, lock: _FileLock) -> None:
        """Admit waiters from the head of the FIFO queue: either one
        writer, or the maximal run of consecutive readers."""
        while lock.queue:
            head = lock.queue[0]
            if head.mode == WRITE:
                if lock.readers or lock.writer is not None:
                    return
                lock.queue.popleft()
                self._admit(lock, head)
                return
            if lock.writer is not None:
                return
            lock.queue.popleft()
            self._admit(lock, head)

    # ----------------------------------------------- deadlock detection

    def _blockers(self, grant: LockGrant) -> List[Process]:
        """The processes a queued ``grant`` is waiting on: every current
        holder plus every grant ahead of it in the FIFO queue (fairness
        means it cannot jump any of them). Sorted by process creation
        serial so traversal — and therefore the reported cycle — is
        replay-stable."""
        lock = self._locks.get(grant.key)
        if lock is None:
            return []
        procs: set[Process] = set()
        for holder in lock.readers:
            if holder.owner is not None:
                procs.add(holder.owner)
        if lock.writer is not None and lock.writer.owner is not None:
            procs.add(lock.writer.owner)
        for queued in lock.queue:
            if queued is grant:
                break
            if queued.owner is not None:
                procs.add(queued.owner)
        return sorted(procs, key=lambda p: p._serial)

    def _find_cycle(
            self, start: Process) -> Optional[List[Tuple[Process, LockGrant]]]:
        """DFS over the waits-for graph from ``start`` (which just
        enqueued). Any new cycle must pass through the edge added last,
        i.e. through ``start`` — detection at every enqueue means no
        pre-existing cycle can be lurking elsewhere. Returns the cycle
        as (process, grant-it-waits-on) pairs, or None."""
        path: List[Tuple[Process, LockGrant]] = []
        on_path: set[Process] = set()

        def visit(proc: Process) -> Optional[List[Tuple[Process, LockGrant]]]:
            grant = self._waiting.get(proc)
            if grant is None:
                return None
            path.append((proc, grant))
            on_path.add(proc)
            for blocker in self._blockers(grant):
                if blocker is start:
                    return list(path)
                if blocker in on_path:
                    continue
                found = visit(blocker)
                if found is not None:
                    return found
            path.pop()
            on_path.discard(proc)
            return None

        return visit(start)


def _render_cycle(cycle: List[Tuple[Process, LockGrant]]) -> str:
    parts = [
        f"{proc.name} waits for {grant.mode} on inode {grant.key}"
        for proc, grant in cycle
    ]
    return (f"waits-for cycle among {len(cycle)} process(es): "
            + "; ".join(parts))
