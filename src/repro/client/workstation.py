"""The workstation cache (§5): shared whole-file client caching with
local capability verification.

The paper's scaling argument rests on two properties of the Bullet
design:

* **Immutability** — "Client caching of immutable files is
  straightforward": a capability names immutable bytes, so a cached
  copy can never be stale *for that capability*. The only thing that
  can change is which capability a directory *name* refers to, and
  that is checked against the directory service (the §5 currency
  check), never against the file server.
* **Sparse capabilities** — an owner capability's check field *is* the
  object's secret (§2.1, ref. [12]), so any holder can derive the
  verifier ``f(secret ^ pad(rights))`` for an arbitrary rights subset
  locally. Permission checks therefore need no RPC either
  (BuffetFS-style): a workstation that cached a file under its owner
  capability can validate any restricted capability presented by a
  sibling process against a **locally derived verifier** and serve the
  bytes straight from RAM.

:class:`WorkstationCache` models the client half of that argument: one
byte-budgeted, LRU, whole-file cache **shared by every client process
on one simulated workstation**. Entries are keyed by object (port,
object number) and carry the verification state learned about that
object:

* ``secret`` — known iff an owner capability has been seen; enables
  verification of *any* capability for the object via
  :func:`repro.capability.local_verifier`.
* ``verified`` — the set of ``(rights, check)`` pairs proven genuine,
  either by a server round trip (the admitting READ) or by a local
  derivation; re-presenting a known pair verifies in O(1) with no
  one-way-function work, mirroring the server's verified-cap cache.

One rule (:meth:`WorkstationCache._prove`) decides whether a presented
capability is genuine: a memoized pair is free; otherwise the known
secret derives the verifier (one charged, counted, memoized one-way
function); with no secret the capability is unprovable and misses
through to the server, which remains the authority. Verification state
is only ever extended from capabilities proven genuine — the capability
that admitted the entry after a successful server READ, or one the rule
proves — so a forged or dead-incarnation capability is never served
cached bytes, and an owner capability is restricted locally
(:meth:`WorkstationCache.restrict`) only when the entry vouches for it.

A hot READ through :class:`~repro.client.CachingBulletClient` then
touches neither the network nor the server: lookup, local check-field
validation, local rights check, bytes returned. Every outcome is
accounted on the shared metrics registry
(``repro_client_cache_{lookups,hits,misses,evictions,bytes_saved,
rpcs_avoided,local_verifies}_total`` and the ``repro_client_cache_bytes``
gauge), and the cache maintains the accounting invariant
``cached_bytes == sum(len(entry) for entries)`` under any admit/evict/
invalidate interleaving (:meth:`audit`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..capability import (
    ALL_RIGHTS,
    Capability,
    has_rights,
    local_verifier,
    restrict as restrict_locally,
)
from ..errors import ConsistencyError
from ..obs import MetricsRegistry, RegistryStats
from ..profiles import CpuProfile

__all__ = ["WorkstationCache", "WorkstationCacheStats", "LookupResult"]


class WorkstationCacheStats(RegistryStats):
    """Counters of one workstation's shared client cache, as a facade
    over the shared registry (``repro_client_cache_*_total``)."""

    _PREFIX = "repro_client_cache"
    _COUNTER_FIELDS = (
        "lookups",
        "hits",
        "misses",
        "evictions",
        "bytes_saved",
        "rpcs_avoided",
        "local_verifies",
    )


class LookupResult:
    """Outcome of one cache lookup.

    ``data`` carries the file bytes on a hit and is ``None`` otherwise;
    ``denied`` marks a capability that verified as genuine but lacks
    the required rights (the caller must raise
    :class:`~repro.errors.RightsError` — locally, without an RPC);
    ``verify_cost`` is the simulated CPU seconds of check-field work the
    caller must charge before acting on the result (one one-way-function
    evaluation when a previously unseen pair was derived, zero when the
    pair was already known or no local verification was possible).
    """

    __slots__ = ("data", "denied", "verify_cost")

    def __init__(self, data: Optional[bytes], denied: bool,
                 verify_cost: float):
        self.data = data
        self.denied = denied
        self.verify_cost = verify_cost

    @property
    def hit(self) -> bool:
        return self.data is not None


def _verifies(secret: int, pair: tuple[int, int]) -> bool:
    """Whether a ``(rights, check)`` pair is genuine under ``secret``:
    the one place the workstation evaluates the one-way function."""
    rights, check = pair
    return check == local_verifier(secret, rights)


class _Entry:
    """One cached whole file plus its verification state."""

    __slots__ = ("data", "secret", "verified")

    def __init__(self, data: bytes):
        self.data = data
        self.secret: Optional[int] = None
        self.verified: set = set()  # {(rights, check)} proven genuine

    def learn(self, cap: Capability) -> None:
        """Memoize a proven capability; an owner's check field is the
        object's secret, so from here on any rights subset verifies
        locally."""
        self.verified.add((cap.rights, cap.check))
        if cap.rights == ALL_RIGHTS:
            self.secret = cap.check


class WorkstationCache:
    """One workstation's shared, byte-budgeted client file cache."""

    def __init__(self, capacity_bytes: int, name: str = "workstation",
                 metrics: Optional[MetricsRegistry] = None,
                 cpu: Optional[CpuProfile] = None):
        if capacity_bytes is None or capacity_bytes <= 0:
            raise ValueError("client cache capacity must be positive")
        self.capacity = capacity_bytes
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Simulated cost of one local one-way-function evaluation.
        self._derive_cost = cpu.capability_check if cpu is not None else 0.0
        self.stats = WorkstationCacheStats(self.metrics, workstation=name)
        self.metrics.gauge("repro_client_cache_bytes", self,
                           lambda cache: cache._used, workstation=name)
        self._entries: OrderedDict[tuple[int, int], _Entry] = OrderedDict()
        self._used = 0

    # ------------------------------------------------------------ queries

    @property
    def cached_bytes(self) -> int:
        """Bytes held; invariant: equals the sum of entry sizes."""
        return self._used

    def __contains__(self, cap: Capability) -> bool:
        return (cap.port, cap.object) in self._entries

    def audit(self) -> int:
        """Check the accounting invariant; returns the byte total."""
        actual = sum(len(e.data) for e in self._entries.values())
        if actual != self._used or actual > self.capacity:
            raise ConsistencyError(
                f"cache accounting drifted: used={self._used}, "
                f"actual={actual}, capacity={self.capacity}"
            )
        return actual

    # ------------------------------------------------------------- lookup

    def lookup(self, cap: Capability, needed_rights: int,
               op: str = "read") -> LookupResult:
        """Probe the cache with a capability.

        A hit requires (a) the object's bytes to be resident and (b) the
        capability to be proven genuine *locally* by :meth:`_prove`. A
        genuine capability lacking ``needed_rights`` is reported as
        ``denied`` (counted as a hit: the cache answered
        authoritatively). Anything else — absent object, unprovable or
        mismatching check field — is a miss; the caller falls through
        to the server, which remains the authority on forged
        capabilities and reincarnated object numbers.
        """
        self.stats.lookups.inc()
        entry = self._entries.get((cap.port, cap.object))
        proven, cost = (False, 0.0) if entry is None else self._prove(entry, cap)
        if not proven:
            self.stats.misses.inc()
            return LookupResult(None, False, cost)
        self._entries.move_to_end((cap.port, cap.object))
        self.stats.hits.inc()
        self.stats.rpcs_avoided.inc()
        if not has_rights(cap.rights, needed_rights):
            return LookupResult(None, True, cost)
        if op == "read":
            self.stats.bytes_saved.inc(len(entry.data))
        return LookupResult(entry.data, False, cost)

    # ---------------------------------------------------------- admission

    def admit(self, cap: Capability, data: bytes) -> bool:
        """Admit a whole file fetched from the server under ``cap``.

        Returns False when the file is larger than the budget and
        cannot be cached. Re-admission of a resident object with the
        same bytes (a concurrent sharer, or an unseen delete + recreate
        that reused the object number *and* the contents) never touches
        the byte accounting (``cached_bytes`` tracks reality, never the
        admission count) and keeps only the evidence the admitting
        capability — proven by the server for the *current*
        incarnation — proves (:meth:`_readmit`). A resident object whose
        bytes differ — a reincarnated object number — is replaced, with
        its verification state dropped.
        """
        key = (cap.port, cap.object)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.data == data:
                self._readmit(entry, cap)
                self._entries.move_to_end(key)
                return True
            self._drop(key, entry)
        if len(data) > self.capacity:
            return False
        self._make_room(len(data))
        entry = _Entry(bytes(data))
        entry.learn(cap)
        self._entries[key] = entry
        self._used += len(data)
        return True

    def currency_evidence(self, based_on: Capability,
                          current: Capability) -> tuple[bool, float]:
        """The §5 currency comparison: does ``current`` (just fetched
        from the directory) provably name the same file *incarnation*
        as ``based_on`` (the capability the cached copy is based on)?

        Raw capability equality is wrong in both directions. A copy
        cached under a *restricted* capability must still compare
        current against the directory's owner capability — the object
        is identical, only the rights differ — while a delete+recreate
        reusing the object number must compare **stale** even though
        ``(port, object)`` match: the new incarnation has a new secret.
        So identity is object identity plus **secret lineage**: both
        capabilities must verify against one and the same secret.
        Evidence is tried in order of cost:

        * exact ``(rights, check)`` equality — free;
        * an owner-shaped side carries its incarnation's secret in the
          check field (§2.1), so the other side is checked by one
          derivation with that check field as the secret; two unequal
          owner-shaped capabilities carry *different* secrets — stale;
        * both sides restricted: both must pass :meth:`_prove`, the
          resident entry's own evidence.

        Unprovable pairs report stale — the safe direction: a spurious
        re-fetch, never a stale read. Returns ``(proven, cost)`` where
        ``cost`` is the simulated seconds of check-field work the
        caller must charge; derivations are memoized in the entry's
        verified set (when the object is resident and trusted), so
        re-checking a hot binding is O(1) and free.
        """
        if (based_on.port, based_on.object) != (current.port, current.object):
            return False, 0.0
        if (based_on.rights, based_on.check) == (current.rights, current.check):
            return True, 0.0
        entry = self._entries.get((based_on.port, based_on.object))
        for owner, other in ((based_on, current), (current, based_on)):
            if owner.rights != ALL_RIGHTS:
                continue
            if other.rights == ALL_RIGHTS:
                # Two owner capabilities with different check fields are
                # two different secrets: distinct incarnations.
                return False, 0.0
            proven, cost = self._derive(owner.check, other)
            if (proven and entry is not None
                    and (based_on.rights, based_on.check) in entry.verified):
                # The check proved the owner capability of an entry
                # that already trusts based_on: seed the secret so
                # every future verification for this object is O(1).
                entry.learn(owner)
                entry.learn(other)
            return proven, cost
        if entry is None:
            return False, 0.0
        cost = 0.0
        for cap in (based_on, current):
            proven, spent = self._prove(entry, cap)
            cost += spent
            if not proven:
                return False, cost
        return True, cost

    def restrict(self, cap: Capability,
                 mask: int) -> Optional[tuple[Capability, float]]:
        """Restrict an owner capability client-side (§2.1: its check
        field is the secret, so the restricted check derives locally).

        Returns ``(restricted, cost)``, ``cost`` being the simulated
        seconds the caller must charge, when the entry vouches for
        ``cap``: its pair is memoized (learning the secret memoizes the
        owner's pair, so no derivation could prove an owner capability
        that is not). The restriction is memoized, so a read under it
        is a free hit. Otherwise None: the caller asks the server,
        which raises on forgeries."""
        entry = self._entries.get((cap.port, cap.object))
        if (cap.rights != ALL_RIGHTS or entry is None
                or (cap.rights, cap.check) not in entry.verified):
            return None
        restricted = restrict_locally(cap, mask)
        cost = 0.0
        if restricted is not cap:
            cost = self._derive_cost
            entry.learn(restricted)
        self.stats.rpcs_avoided.inc()
        return restricted, cost

    # -------------------------------------------------------- invalidation

    def invalidate(self, cap: Capability) -> bool:
        """Drop the object's entry (after a successful DELETE). The
        server-side delete is irreversible, so this never raises;
        returns whether an entry was resident."""
        key = (cap.port, cap.object)
        entry = self._entries.get(key)
        if entry is None:
            return False
        self._drop(key, entry)
        return True

    # ----------------------------------------------------------- internals

    def _prove(self, entry: _Entry, cap: Capability) -> tuple[bool, float]:
        """The one proof rule: whether ``cap`` is genuine by the entry's
        own evidence, and the simulated seconds that cost. A memoized
        pair costs nothing; otherwise a known secret derives the
        verifier (:meth:`_derive`), memoized on success; with no secret
        the capability is unprovable."""
        if (cap.rights, cap.check) in entry.verified:
            return True, 0.0
        if entry.secret is None:
            return False, 0.0
        proven, cost = self._derive(entry.secret, cap)
        if proven:
            entry.learn(cap)
        return proven, cost

    def _derive(self, secret: int, cap: Capability) -> tuple[bool, float]:
        """One local derivation: whether ``cap``'s check field is the
        verifier ``secret`` gives its rights — one one-way function,
        charged and counted."""
        self.stats.local_verifies.inc()
        return _verifies(secret, (cap.rights, cap.check)), self._derive_cost

    def _readmit(self, entry: _Entry, cap: Capability) -> None:
        """Same-bytes re-admission under ``cap``, which the server has
        just proven for the current incarnation: keep only the evidence
        ``cap`` proves. These checks charge and count nothing."""
        pair = (cap.rights, cap.check)
        if pair in entry.verified:
            return
        if entry.secret is not None:
            if not _verifies(entry.secret, pair):
                entry.secret = None
                entry.verified.clear()
        elif cap.rights == ALL_RIGHTS:
            entry.verified = {known for known in entry.verified
                              if _verifies(cap.check, known)}
        else:
            # Another pair with cap's rights is another incarnation's;
            # one with other rights cannot be linked without a secret.
            entry.verified.clear()
        entry.learn(cap)

    def _make_room(self, needed: int) -> None:
        """Evict entries, LRU first, until ``needed`` (at most the
        whole budget) fits."""
        while self._used + needed > self.capacity:
            _key, entry = self._entries.popitem(last=False)
            self._used -= len(entry.data)
            self.stats.evictions.inc()

    def _drop(self, key: tuple[int, int], entry: _Entry) -> None:
        del self._entries[key]
        self._used -= len(entry.data)
