"""Reference models (oracles) for model-based testing and checking.

:class:`RefModel` is the capability→bytes oracle for a Bullet volume
that `tests/test_model_based.py` and the model checker share. It
captures exactly the semantics the paper promises:

* files are **immutable** — a capability's bytes never change, so the
  only uncertainty a crash can introduce is *presence*, never content;
* CREATE/MODIFY return a fresh capability; the reply means the file is
  durable on at least P-FACTOR replicas (for P ≥ 1), which the oracle
  records as *confirmed*;
* a server crash may orphan an in-flight CREATE/MODIFY (the oracle
  simply never learns the capability) and may leave an in-flight
  DELETE half-applied, which the oracle records as *uncertain* — a
  later successful READ resolves presence either way.

Immutability is what makes linearizability checking cheap: a completed
READ is correct iff it returned either the capability's one true byte
string or NOT_FOUND at a moment when absence was plausible. There is
no window in which two different *contents* are both acceptable.

:class:`RefDirectory` is the name→capability oracle for the directory
server (`tests/test_model_based_more.py`).
"""

from __future__ import annotations

from hashlib import sha256
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..capability import Capability
from ..errors import ConsistencyError

__all__ = ["RefModel", "RefDirectory"]


class RefModel:
    """Oracle for one Bullet volume: capability → immutable bytes."""

    def __init__(self) -> None:
        # Files the oracle believes exist (confirmed or not).
        self._files: Dict[Capability, bytes] = {}
        # Subset of _files whose reply implied durability (P-FACTOR >= 1).
        self._confirmed: Set[Capability] = set()
        # Files whose *presence* is unknown after a crash interrupted an
        # operation on them (bytes retained: content is never uncertain).
        self._uncertain: Dict[Capability, bytes] = {}
        # Capabilities known to have been deleted (presence resolved to
        # "gone"); READ returning NOT_FOUND for these is correct.
        self._gone: Set[Capability] = set()

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, cap: Capability) -> bool:
        return cap in self._files

    def __iter__(self) -> Iterator[Capability]:
        return iter(self.caps())

    def caps(self) -> List[Capability]:
        """Live capabilities in deterministic (object-number) order."""
        return sorted(self._files, key=lambda c: c.object)

    def pick(self, index: int) -> Optional[Capability]:
        """The live capability at ``index`` modulo the live count — the
        deterministic target-selection rule the model-based suites and
        the checker's scripted clients share. None when empty."""
        caps = self.caps()
        return caps[index % len(caps)] if caps else None

    def data(self, cap: Capability) -> bytes:
        """The one true content of ``cap`` (KeyError if unknown)."""
        if cap in self._files:
            return self._files[cap]
        return self._uncertain[cap]

    def items(self) -> List[Tuple[Capability, bytes]]:
        """Live (capability, bytes) pairs in deterministic order."""
        return [(cap, self._files[cap]) for cap in self.caps()]

    def confirmed_files(self) -> List[Tuple[Capability, bytes]]:
        """The durability set: files whose reply promised P ≥ 1 copies
        and whose presence is not in doubt. These must survive fewer
        than `tolerance` replica failures (AllFilesOnline)."""
        return [(cap, self._files[cap]) for cap in self.caps()
                if cap in self._confirmed]

    def is_uncertain(self, cap: Capability) -> bool:
        return cap in self._uncertain

    def has_uncertain(self) -> bool:
        return bool(self._uncertain)

    def known(self, cap: Capability) -> bool:
        """True if the oracle has ever tracked ``cap``."""
        return (cap in self._files or cap in self._uncertain
                or cap in self._gone)

    def absence_plausible(self, cap: Capability) -> bool:
        """True when a NOT_FOUND reply for ``cap`` is acceptable:
        deleted, never tracked, or crash-uncertain."""
        return cap not in self._files or cap in self._uncertain

    # ---------------------------------------------------------- mutation

    def create(self, cap: Capability, data: bytes,
               confirmed: bool = True) -> None:
        """Record a completed CREATE (or MODIFY's fresh file). Reusing a
        *live* (or uncertain) capability is an oracle-integrity error,
        and so is a *gone* one coming back: every incarnation mints its
        own secrets (DESIGN.md §5c), so a reissued deleted (object,
        check) pair is a server that re-minted a dead file's secret."""
        if cap in self._files or cap in self._uncertain:
            raise ConsistencyError(f"live capability reuse: {cap!r}")
        if cap in self._gone:
            raise ConsistencyError(
                f"deleted capability reissued: {cap!r}")
        self._files[cap] = data
        if confirmed:
            self._confirmed.add(cap)

    def delete(self, cap: Capability) -> None:
        """Record a completed DELETE."""
        if cap in self._uncertain:
            del self._uncertain[cap]
        self._files.pop(cap)
        self._confirmed.discard(cap)
        self._gone.add(cap)

    def crash(self) -> None:
        """A server crash: every unconfirmed file (written with P = 0,
        so the reply promised nothing durable) becomes uncertain."""
        for cap in [c for c in self._files if c not in self._confirmed]:
            self._uncertain[cap] = self._files[cap]

    def mark_uncertain(self, cap: Capability) -> None:
        """An operation that could have removed ``cap`` died without a
        reply (crash mid-DELETE): presence is now unknown."""
        if cap in self._files:
            self._uncertain[cap] = self._files[cap]
            self._confirmed.discard(cap)

    def resolve_present(self, cap: Capability) -> None:
        """A successful READ proved ``cap`` still exists."""
        self._uncertain.pop(cap, None)

    def resolve_absent(self, cap: Capability) -> None:
        """A NOT_FOUND reply proved ``cap`` is gone."""
        if cap not in self._uncertain:
            raise ConsistencyError(
                f"cannot resolve {cap!r} absent: not uncertain")
        del self._uncertain[cap]
        self._files.pop(cap, None)
        self._confirmed.discard(cap)
        self._gone.add(cap)

    # ------------------------------------------------- modify arithmetic

    @staticmethod
    def clamp_modify(size: int, offset: int,
                     delete_bytes: int) -> Tuple[int, int]:
        """The in-range (offset, delete_bytes) the suites derive from
        unbounded generated integers, shared so scripted clients and
        hypothesis agree byte-for-byte."""
        offset = offset % (size + 1)
        return offset, min(delete_bytes, size - offset)

    @staticmethod
    def spliced(old: bytes, offset: int, delete_bytes: int,
                insert: bytes) -> bytes:
        """MODIFY's result content: splice ``insert`` over the deleted
        range. The source file is immutable and unchanged."""
        return old[:offset] + insert + old[offset + delete_bytes:]

    # ------------------------------------------------------------ digest

    def digest(self, aliases: Optional[Dict[int, int]] = None) -> str:
        """Replay-stable hash of the oracle state (state-key input). A
        live file's check enters as its alias (order of first appearance
        across the state key), a dead file's as the alias it shares, or 0."""
        aliases = {} if aliases is None else aliases
        h = sha256()
        for cap in self.caps():
            alias = aliases.setdefault(cap.check, len(aliases) + 1)
            h.update(repr((cap.object, alias,
                           self._files[cap],
                           cap in self._confirmed,
                           cap in self._uncertain)).encode())
        for tag, dead in (("u", set(self._uncertain) - set(self._files)),
                          ("g", self._gone)):
            for entry in sorted((c.object, aliases.get(c.check, 0))
                                for c in dead):
                h.update(repr((tag,) + entry).encode())
        return h.hexdigest()


class RefDirectory:
    """Oracle for one directory: name → capability, flat namespace."""

    def __init__(self) -> None:
        self._names: Dict[str, Capability] = {}

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def names(self) -> List[str]:
        """Entry names in sorted order (the LIST wire order)."""
        return sorted(self._names)

    def lookup(self, name: str) -> Optional[Capability]:
        return self._names.get(name)

    def append(self, name: str, cap: Capability) -> bool:
        """Record an APPEND; False when the name already exists (the
        server must raise ExistsError)."""
        if name in self._names:
            return False
        self._names[name] = cap
        return True

    def replace(self, name: str, cap: Capability) -> Optional[Capability]:
        """Record a REPLACE; returns the displaced capability, or None
        when the name is absent (the server must raise NotFoundError)."""
        old = self._names.get(name)
        if old is None:
            return None
        self._names[name] = cap
        return old

    def remove(self, name: str) -> Optional[Capability]:
        """Record a REMOVE; returns the removed capability, or None
        when absent (the server must raise NotFoundError)."""
        return self._names.pop(name, None)
