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

Verification state is only ever seeded from capabilities *proven*
genuine — the capability that admitted the entry after a successful
server READ, or one that derives from an already-known secret. A
merely owner-*shaped* capability is never trusted: the cache refuses to
record it (:meth:`register_verified` is a no-op for it), so a forged
owner capability can neither poison the secret nor mint verified pairs;
it misses through to the server, which remains the authority.

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
    verify,
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


class _Entry:
    """One cached whole file plus its verification state."""

    __slots__ = ("data", "secret", "verified")

    def __init__(self, data: bytes):
        self.data = data
        self.secret: Optional[int] = None
        self.verified: set = set()  # {(rights, check)} proven genuine


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
        self.cpu = cpu
        self.stats = WorkstationCacheStats(self.metrics, workstation=name)
        self._bytes_gauge = self.metrics.gauge(
            "repro_client_cache_bytes", workstation=name)
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

    @property
    def derive_cost(self) -> float:
        """Simulated cost of one local check-field derivation."""
        return self.cpu.capability_check if self.cpu is not None else 0.0

    # ------------------------------------------------------------- lookup

    def lookup(self, cap: Capability, needed_rights: int,
               op: str = "read") -> LookupResult:
        """Probe the cache with a capability.

        A hit requires (a) the object's bytes to be resident and (b) the
        capability to verify *locally*: its ``(rights, check)`` pair is
        already known genuine, or the entry holds the object's secret
        and the pair matches the locally derived verifier. A genuine
        capability lacking ``needed_rights`` is reported as ``denied``
        (counted as a hit: the cache answered authoritatively). Anything
        else — absent object, unverifiable or mismatching check field —
        is a miss; the caller falls through to the server, which remains
        the authority on forged capabilities and reincarnated object
        numbers.
        """
        self.stats.lookups.inc()
        entry = self._entries.get((cap.port, cap.object))
        cost = 0.0
        verified = False
        if entry is not None:
            pair = (cap.rights, cap.check)
            verified = pair in entry.verified
            if not verified and entry.secret is not None:
                cost = self.derive_cost
                self.stats.local_verifies.inc()
                verified = cap.check == local_verifier(entry.secret,
                                                       cap.rights)
                if verified:
                    entry.verified.add(pair)
        if not verified:
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
        cannot be cached. Re-admission of a resident object by a
        concurrent sharer merges verification state without touching
        the byte accounting (``cached_bytes`` tracks reality, never the
        admission count). A resident object whose bytes differ — a reincarnated
        object number — is replaced, with the stale verification state
        dropped; when the reincarnation reuses identical bytes, the
        admitting capability (server-proven for the *current*
        incarnation) is checked against the entry's known secret, and a
        mismatch likewise resets the stale secret and verified pairs,
        so capabilities of the deleted incarnation miss through to the
        server instead of riding the byte equality.
        """
        key = (cap.port, cap.object)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.data == data:
                if entry.secret is not None and not verify(cap, entry.secret):
                    # Reincarnation with identical bytes: the prior
                    # incarnation's verification state is revoked.
                    entry.secret = None
                    entry.verified.clear()
                self._note_verified(entry, cap)
                self._entries.move_to_end(key)
                return True
            self._drop(key, entry)
        if len(data) > self.capacity:
            return False
        self._make_room(len(data))
        entry = _Entry(bytes(data))
        self._note_verified(entry, cap)
        self._entries[key] = entry
        self._account(len(data))
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
          check field (§2.1), so the other side verifies against it
          directly (one one-way function); two unequal owner-shaped
          capabilities carry *different* secrets — stale;
        * both sides restricted: only the resident entry's own
          evidence (known secret / verified pairs) can link them.

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
        cost = 0.0
        for owner, other in ((based_on, current), (current, based_on)):
            if owner.rights != ALL_RIGHTS:
                continue
            if other.rights == ALL_RIGHTS:
                # Two owner capabilities with different check fields are
                # two different secrets: distinct incarnations.
                return False, cost
            cost += self.derive_cost
            self.stats.local_verifies.inc()
            proven = verify(other, owner.check)
            if (proven and entry is not None
                    and (based_on.rights, based_on.check) in entry.verified):
                # The check proved the owner capability of an entry
                # that already trusts based_on: seed the secret so
                # every future verification for this object is O(1).
                self._note_verified(entry, owner)
                self._note_verified(entry, other)
            return proven, cost
        if entry is None:
            return False, cost
        for cap in (based_on, current):
            if (cap.rights, cap.check) in entry.verified:
                continue
            if entry.secret is None:
                return False, cost
            cost += self.derive_cost
            self.stats.local_verifies.inc()
            if not verify(cap, entry.secret):
                return False, cost
            entry.verified.add((cap.rights, cap.check))
        return True, cost

    def owner_verified(self, cap: Capability) -> bool:
        """Whether ``cap`` is an owner capability the cache can vouch
        for: its object is resident and the capability is proven
        genuine by the entry's own evidence (it admitted the entry, or
        its check field equals the known secret). Only such a
        capability may be restricted locally without asking the
        server."""
        if cap.rights != ALL_RIGHTS:
            return False
        entry = self._entries.get((cap.port, cap.object))
        return entry is not None and self._proven(entry, cap)

    def register_verified(self, cap: Capability,
                          derived: Optional[Capability] = None) -> None:
        """Record capabilities proven genuine out of band (e.g. a local
        owner-side restrict): seeds the entry's verification state so a
        later read under ``derived`` hits without any check-field work.

        The cache never takes the caller's word for it: each capability
        is registered only if it verifies against the entry's existing
        evidence (its pair is already known, or it derives from the
        known secret). An unprovable capability — notably a forged
        owner-shaped one — is silently ignored, so it can neither
        overwrite the secret nor mint verified pairs; later lookups
        under it miss through to the server, the authority."""
        entry = self._entries.get((cap.port, cap.object))
        if entry is None or not self._proven(entry, cap):
            return
        self._note_verified(entry, cap)
        if (derived is not None and derived.port == cap.port
                and derived.object == cap.object
                and self._proven(entry, derived)):
            self._note_verified(entry, derived)

    def note_rpc_avoided(self) -> None:
        """Account one server round trip that local state made
        unnecessary outside the lookup path (e.g. a local restrict)."""
        self.stats.rpcs_avoided.inc()

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

    def _proven(self, entry: _Entry, cap: Capability) -> bool:
        """Whether ``cap`` is genuine by the entry's own evidence: its
        pair is already verified, or it derives from the known secret.
        Callers must only extend verification state from proven caps."""
        if (cap.rights, cap.check) in entry.verified:
            return True
        if entry.secret is None:
            return False
        return verify(cap, entry.secret)

    def _note_verified(self, entry: _Entry, cap: Capability) -> None:
        entry.verified.add((cap.rights, cap.check))
        if cap.rights == ALL_RIGHTS:
            # The owner capability carries the object's secret itself:
            # from here on any rights subset verifies locally.
            entry.secret = cap.check

    def _make_room(self, needed: int) -> None:
        """Evict entries, LRU first, until ``needed`` (at most the
        whole budget) fits."""
        while self._used + needed > self.capacity:
            _key, entry = self._entries.popitem(last=False)
            self._account(-len(entry.data))
            self.stats.evictions.inc()

    def _drop(self, key: tuple[int, int], entry: _Entry) -> None:
        del self._entries[key]
        self._account(-len(entry.data))

    def _account(self, delta: int) -> None:
        self._used += delta
        self._bytes_gauge.set(self._used)
