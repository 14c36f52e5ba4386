"""Exhaustive DFS and seeded random-walk exploration of a CheckRig.

The sim kernel's processes are live generators — they cannot be
snapshotted or deep-copied — so the explorer is *stateless* in the
model-checking sense: it owns at most one live rig at a time and
re-executes the trace prefix from a fresh rig whenever it backtracks
to a state whose rig has already been consumed (replay-on-backtrack).
Replays are cheap because the rig is tiny (~1–2 ms per full trace) and
exact because every transition is deterministic given its (label, tie
choices) record.

Visited-state pruning hashes :meth:`CheckRig.state_key`; the hash
excludes simulated time, so two schedules that reach the same reachable
state at different instants merge. The exploration *fingerprint* — the
hash of the sorted visited-state set — is the determinism witness the
CLI and CI compare across runs.

Tie exploration: each transition records the candidate count at every
kernel scheduling choice point it consulted. With ``scope.tie_depth >
0`` the DFS enumerates deviating choice vectors in canonical form
(deviations only at positions ≥ the parent vector's length, so every
vector is generated exactly once); the walk draws choices from its
seeded stream and records what it drew, keeping every walk replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.lockset import activate, active_checker, deactivate
from ..errors import ConsistencyError
from ..sim.rng import SeededStream
from .rig import CheckRig, InvariantViolation, Scope, TransitionRecord, check_scope

__all__ = ["Explorer", "ExploreStats", "Counterexample"]


@dataclass
class Counterexample:
    """A failing schedule: the records replay it, shrunk or not."""

    records: List[TransitionRecord]
    family: str
    message: str
    shrunk_from: Optional[int] = None

    def labels(self) -> List[str]:
        return [rec.label for rec in self.records]


@dataclass
class ExploreStats:
    """What an exploration did — all fields replay-stable (no wall
    clock anywhere: determinism is the point)."""

    mode: str
    scope: Dict[str, Any]
    seed: int
    states: int = 0
    transitions: int = 0
    replays: int = 0
    pruned: int = 0
    leaves: int = 0
    max_depth: int = 0
    walks: int = 0
    fingerprint: str = ""
    violation: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro.modelcheck.stats/1",
            "mode": self.mode,
            "scope": self.scope,
            "seed": self.seed,
            "states": self.states,
            "transitions": self.transitions,
            "replays": self.replays,
            "pruned": self.pruned,
            "leaves": self.leaves,
            "max_depth": self.max_depth,
            "walks": self.walks,
            "fingerprint": self.fingerprint,
            "violation": self.violation,
        }


class _Found(Exception):
    """Internal: unwinds the DFS when a violation is found."""

    def __init__(self, records: List[TransitionRecord],
                 violation: InvariantViolation):
        super().__init__(str(violation))
        self.records = records
        self.violation = violation


class Explorer:
    """One exploration of one scope. Create a fresh instance per run."""

    def __init__(self, scope: Scope, seed: int = 0):
        check_scope(scope)
        self.scope = scope
        self.seed = seed
        self.visited: Set[str] = set()
        self.counterexample: Optional[Counterexample] = None
        self.stats: Optional[ExploreStats] = None

    # ---------------------------------------------------------- frontends

    def dfs(self, shrink: bool = True) -> ExploreStats:
        """Exhaust the scope depth-first. Stops at the first violation
        (optionally shrinking its trace); otherwise visits every
        reachable state and finalizes every leaf."""
        stats = ExploreStats(mode="dfs", scope=self.scope.to_dict(),
                             seed=self.seed)
        self.stats = stats
        previous = active_checker()
        try:
            rig = self._new_rig()
            self.visited.add(rig.state_key())
            self._visit(rig, [], 0)
        except _Found as found:
            self._record_violation(found.records, found.violation, shrink)
        finally:
            self._restore(previous)
        stats.fingerprint = self._fingerprint()
        return stats

    def walk(self, walks: int = 64, steps: int = 32,
             shrink: bool = True) -> ExploreStats:
        """Seeded random walks for scopes too big to exhaust: each walk
        picks uniformly among enabled transitions and random tie choices
        (up to ``scope.tie_depth`` per transition), recording every draw
        so any failing walk replays exactly."""
        stats = ExploreStats(mode="walk", scope=self.scope.to_dict(),
                             seed=self.seed, walks=walks)
        self.stats = stats
        rng = SeededStream(self.seed, "modelcheck.walk")
        previous = active_checker()
        try:
            for _walk in range(walks):
                if self._one_walk(rng, steps, shrink):
                    break
        finally:
            self._restore(previous)
        stats.fingerprint = self._fingerprint()
        return stats

    # ---------------------------------------------------------------- DFS

    def _visit(self, rig: CheckRig, records: List[TransitionRecord],
               depth: int) -> None:
        """Expand the state ``rig`` sits in (already marked visited).
        Consumes ``rig``: the first child mutates it in place; siblings
        replay from fresh rigs."""
        stats = self._stats()
        stats.states += 1
        stats.max_depth = max(stats.max_depth, depth)
        labels = rig.enabled()
        limit = self.scope.max_depth
        if not labels or (limit is not None and depth >= limit):
            stats.leaves += 1
            self._finalize(rig, records)
            return
        # The work queue of (label, tie-vector) children; tie deviations
        # are appended as each child's apply reports its choice points.
        queue: List[Tuple[str, Tuple[int, ...]]] = [
            (label, ()) for label in labels]
        live: Optional[CheckRig] = rig
        index = 0
        while index < len(queue):
            label, vector = queue[index]
            index += 1
            if live is not None:
                child, live = live, None
            else:
                child = self._replay(records)
            try:
                taken = child.apply(label, ties=vector)
            except InvariantViolation as violation:
                raise _Found(
                    records + [TransitionRecord(label, vector)], violation)
            stats.transitions += 1
            counts = child._ties.counts
            for position in range(len(vector),
                                  min(len(counts), self.scope.tie_depth)):
                for choice in range(1, counts[position]):
                    queue.append((label, vector
                                  + (0,) * (position - len(vector))
                                  + (choice,)))
            key = child.state_key()
            if key in self.visited:
                stats.pruned += 1
                continue
            self.visited.add(key)
            self._visit(child,
                        records + [TransitionRecord(label, tuple(taken))],
                        depth + 1)

    def _replay(self, records: List[TransitionRecord]) -> CheckRig:
        stats = self._stats()
        stats.replays += 1
        rig = self._new_rig()
        for rec in records:
            rig.apply(rec.label, ties=rec.ties)
        return rig

    def _finalize(self, rig: CheckRig, records: List[TransitionRecord]) -> None:
        try:
            rig.finalize()
        except InvariantViolation as violation:
            raise _Found(list(records), violation)

    # --------------------------------------------------------------- walk

    def _one_walk(self, rng: SeededStream, steps: int, shrink: bool) -> bool:
        stats = self._stats()
        rig = self._new_rig()
        records: List[TransitionRecord] = []
        self.visited.add(rig.state_key())
        try:
            for _step in range(steps):
                labels = rig.enabled()
                if not labels:
                    break
                label = labels[rng.randint(0, len(labels) - 1)]
                taken = rig.apply(label, rng=rng)
                stats.transitions += 1
                records.append(TransitionRecord(label, tuple(taken)))
                key = rig.state_key()
                if key not in self.visited:
                    self.visited.add(key)
                    stats.states += 1
                stats.max_depth = max(stats.max_depth, len(records))
            stats.leaves += 1
            rig.finalize()
        except InvariantViolation as violation:
            self._record_violation(records, violation, shrink)
            return True
        return False

    # ------------------------------------------------------------ shrinker

    def shrink(self, records: List[TransitionRecord]
               ) -> Tuple[List[TransitionRecord], InvariantViolation]:
        """Greedy single-removal fixpoint (ddmin-lite): repeatedly drop
        any one record whose removal still yields a failing, *valid*
        trace (every remaining label enabled when its turn comes). The
        result is 1-minimal: removing any single record makes it pass."""
        current = list(records)
        violation = self.replay_fails(current)
        if violation is None:
            raise ValueError("shrink() requires a failing trace")
        changed = True
        while changed:
            changed = False
            for index in range(len(current)):
                candidate = current[:index] + current[index + 1:]
                failed = self.replay_fails(candidate)
                if failed is not None:
                    current = candidate
                    violation = failed
                    changed = True
                    break
        return current, violation

    def replay_fails(self, records: List[TransitionRecord]
                     ) -> Optional[InvariantViolation]:
        """Replay ``records`` on a fresh rig: the violation it raises
        (at any transition or at finalize), or None if the trace passes
        or becomes invalid (a label not enabled at its turn — which for
        shrinking purposes counts as passing)."""
        stats = self.stats
        if stats is not None:
            stats.replays += 1
        previous = active_checker()
        try:
            rig = self._new_rig()
            for rec in records:
                if rec.label not in rig.enabled():
                    return None
                rig.apply(rec.label, ties=rec.ties)
            rig.finalize()
        except InvariantViolation as violation:
            return violation
        finally:
            # Also a public entry point (trace replay): do not leave the
            # rig's checker armed for whatever the process runs next.
            self._restore(previous)
        return None

    # ------------------------------------------------------------ plumbing

    def _new_rig(self) -> CheckRig:
        return CheckRig(self.scope)

    def _stats(self) -> ExploreStats:
        if self.stats is None:
            raise ConsistencyError("no exploration in progress")
        return self.stats

    def _record_violation(self, records: List[TransitionRecord],
                          violation: InvariantViolation,
                          shrink: bool) -> None:
        stats = self._stats()
        shrunk_from: Optional[int] = None
        if shrink and records:
            shrunk_from = len(records)
            records, violation = self.shrink(records)
        self.counterexample = Counterexample(
            records=records, family=violation.family,
            message=violation.message, shrunk_from=shrunk_from)
        stats.violation = {
            "family": violation.family,
            "message": violation.message,
            "trace": [rec.label for rec in records],
        }

    def _fingerprint(self) -> str:
        h = sha256()
        for key in sorted(self.visited):
            h.update(key.encode())
        return h.hexdigest()

    @staticmethod
    def _restore(previous: Any) -> None:
        """Rigs activate their own lockset checker; put back whatever
        the caller (e.g. conftest's REPRO_LOCKSET fixture) had."""
        if previous is not None:
            activate(previous)
        else:
            deactivate()
