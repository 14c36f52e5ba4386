"""Runtime concurrency checking: an Eraser-style lockset checker.

This module checks lock discipline over the paths that actually *run*.
It follows the lockset algorithm of Savage et al.'s Eraser, adapted to
the simulation's cooperative concurrency: instead of threads there are
sim processes (:class:`repro.sim.core.Process`), and instead of pthread
mutexes there are per-file grants from
:class:`repro.core.locks.FileLockTable`.

Lock-guarded server state is declared by *being* a :class:`GuardedMap`:
the mapping has no way to be written that does not report the write
here, so there is no hook to forget and no annotation to keep in step.

For every checked variable ``v`` the checker maintains a *candidate
lockset* ``C(v)`` — the locks held at **every** access so far — refined
by intersection on each access. While only one process has ever touched
``v`` the variable is in its exclusive (initialization) phase and no
violation is reported; the moment a second process touches it the
candidate set becomes binding, and if it drains to empty on a history
that includes a write, a :class:`RaceReport` is raised *at the access*,
inside the offending process, with simulated-time stamps and
deterministic process names — so the report itself is replay-stable.

Activation is explicit (:func:`activate` / :func:`deactivate`) and off
by default: production and benchmark runs pay only a per-hook
``active_checker() is None`` test. The test suite turns it on under
``REPRO_LOCKSET=1`` (see ``tests/conftest.py``); CI runs the whole
tier-1 suite that way at ``workers=4``.

The hooks live here, beside the lock table that calls them, and not in
:mod:`repro.analysis`: the server must not import its linter to run
(``tests/test_public_api.py`` pins that ``import repro`` loads no
``repro.analysis`` module).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, FrozenSet, Generic, Mapping, Optional,
                    Protocol, Set, Tuple, TypeVar)

if TYPE_CHECKING:
    from ..sim import Environment

__all__ = [
    "LockName",
    "RaceReport",
    "LocksetChecker",
    "GuardedMap",
    "activate",
    "deactivate",
    "active_checker",
]

#: A lock's identity: (lock-table name, key within the table). The
#: table name comes from the table's ``owner`` label ("bullet", ...),
#: so two servers' inode-7 locks are distinct.
LockName = Tuple[str, int]

#: A checked variable's identity: (field label, instance key) — e.g.
#: ("bullet.lives", inode_number). Per-element granularity, so
#: independent inodes do not pollute each other's candidate sets.
VarName = Tuple[str, int]


class SimProcess(Protocol):
    """What the checker needs from a process: a replay-stable name."""

    @property
    def name(self) -> str: ...


class RaceReport(Exception):
    """Two processes reached a checked variable with no common lock.

    Raised synchronously from the access that drained the candidate
    lockset, so it surfaces inside the offending process — the sim
    kernel propagates it like any process failure and the test run
    dies pointing at the exact access.
    """


_active: Optional["LocksetChecker"] = None


def activate(checker: "LocksetChecker") -> "LocksetChecker":
    """Install ``checker`` as the process-wide active checker."""
    global _active
    _active = checker
    return checker


def deactivate() -> None:
    """Clear the active checker (hooks become no-ops again)."""
    global _active
    _active = None


def active_checker() -> Optional["LocksetChecker"]:
    """The installed checker, or None. Hook sites call this and skip
    all work on None — the only cost the checker imposes when off."""
    return _active


class _VarState:
    """Lockset-algorithm state for one checked variable."""

    __slots__ = ("first", "candidate", "written", "shared", "last")

    def __init__(self, first: SimProcess, held: FrozenSet[LockName],
                 written: bool, last: str):
        self.first = first
        self.candidate: FrozenSet[LockName] = held
        self.written = written
        self.shared = False
        self.last = last


class LocksetChecker:
    """Tracks per-process holdings and per-variable candidate locksets.

    Fed by three hook families:

    * :meth:`on_acquire` / :meth:`on_release` — called by
      :class:`~repro.core.locks.FileLockTable` when a grant is admitted
      or a held grant released;
    * :meth:`on_access` — called by every :class:`GuardedMap` write;
    * :meth:`reset` — forget a variable (object destruction: a
      reincarnated inode number is a fresh variable).
    """

    def __init__(self) -> None:
        self._holding: Dict[SimProcess, Set[LockName]] = {}
        self._vars: Dict[VarName, _VarState] = {}
        #: Accesses checked (tests assert the hooks actually fired).
        self.accesses = 0

    # ------------------------------------------------------- lock hooks

    def on_acquire(self, process: SimProcess, table: str, key: int) -> None:
        self._holding.setdefault(process, set()).add((table, key))

    def on_release(self, process: SimProcess, table: str, key: int) -> None:
        held = self._holding.get(process)
        if held is not None:
            held.discard((table, key))
            if not held:
                del self._holding[process]

    def holdings(self, process: SimProcess) -> FrozenSet[LockName]:
        """The locks ``process`` holds right now (sorted-stable set)."""
        return frozenset(self._holding.get(process, ()))

    # ----------------------------------------------------- access hooks

    def on_access(self, var: VarName, write: bool,
                  process: Optional[SimProcess], now: float) -> None:
        """Record (and check) one access to ``var``.

        ``process`` is ``env.active_process`` at the access; accesses
        from outside any process (boot-time initialization, direct
        test pokes) are unattributable and skipped.
        """
        if process is None:
            return
        self.accesses += 1
        held = frozenset(self._holding.get(process, ()))
        stamp = (f"{'write' if write else 'read'} by {process.name} "
                 f"at t={now} holding {_render_locks(held)}")
        state = self._vars.get(var)
        if state is None:
            self._vars[var] = _VarState(process, held, write, stamp)
            return
        if state.first is not process:
            state.shared = True
        state.candidate &= held
        previous = state.last
        state.last = stamp
        state.written = state.written or write
        if state.shared and state.written and not state.candidate:
            del self._vars[var]  # do not re-report the same variable
            raise RaceReport(
                f"lockset violation on {var[0]}[{var[1]}]: no common lock "
                f"protects it ({stamp}; previously {previous})"
            )

    def reset(self, var: VarName) -> None:
        """Forget ``var`` — its object was destroyed, so the next access
        belongs to a new incarnation and starts a fresh exclusive phase."""
        self._vars.pop(var, None)


V = TypeVar("V")


class GuardedMap(Generic[V]):
    """A per-key table that may only be written under the key's lock.

    Deliberately not a ``dict``: the two ways to change it,
    ``table[key] = value`` and :meth:`discard`, both report the write to
    the active checker as ``(label, key)``, and there is no third.
    Reads are plain. Disarmed, a write costs this call and one
    ``is None`` test.
    """

    __slots__ = ("_label", "_env", "_items")

    def __init__(self, label: str, env: "Environment",
                 items: Optional[Mapping[int, V]] = None):
        self._label = label
        self._env = env
        self._items: Dict[int, V] = dict(items) if items is not None else {}

    def get(self, key: int, default: V) -> V:
        return self._items.get(key, default)

    def __setitem__(self, key: int, value: V) -> None:
        checker = _active
        if checker is not None:
            checker.on_access((self._label, key), True,
                              self._env.active_process, self._env.now)
        self._items[key] = value

    def discard(self, key: int) -> None:
        """Remove ``key`` if present. Its object is gone: the next entry
        under the same key is a new incarnation whose lockset history
        starts from scratch."""
        checker = _active
        if checker is not None:
            checker.on_access((self._label, key), True,
                              self._env.active_process, self._env.now)
            checker.reset((self._label, key))
        self._items.pop(key, None)


def _render_locks(locks: FrozenSet[LockName]) -> str:
    if not locks:
        return "no locks"
    return "{" + ", ".join(f"{t}:{k}" for t, k in sorted(locks)) + "}"
