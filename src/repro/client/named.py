"""Open-by-name sessions: the §5 coherence plane (DESIGN.md §14).

The paper makes cache coherence the *directory's* job: "Checking if a
cached copy of a file is still current is simply done by looking up its
capability in the directory service, and comparing it to the capability
on which the copy is based." The file server never sees coherence
traffic — immutability means a cached copy can never be stale *for its
capability*; the only mutable binding is the directory entry from a
name to a capability.

:class:`NamedFileClient` is the session layer that runs that protocol
for one workstation: it keeps a per-workstation **name → binding**
cache over a :class:`~repro.client.CachingBulletClient` (the byte
cache) and a directory stub, runs the currency check on ``open`` per a
selectable :class:`CurrencyPolicy`, and — when a binding turns out
stale — invalidates the workstation-cache entry the dead binding
pointed at and re-fetches under the fresh capability. The policies
make the coherence traffic/staleness trade-off measurable:

* ``CurrencyPolicy.always()`` — check every open (never serves a read
  older than the binding current at open time; one directory RPC per
  open).
* ``CurrencyPolicy.after(T)`` — check only when the binding is older
  than ``T`` simulated seconds (bounded staleness, amortized traffic).
* ``CurrencyPolicy.session()`` — bind once, never re-check (zero
  steady-state directory traffic; staleness unbounded until the next
  session).

Every outcome is accounted per workstation on the shared registry:
``repro_client_coherence_{opens,binds,checks,stale,revalidations,
dir_rpcs}_total{workstation=...}`` — the directory-RPC counter is the
quantity the ``coherence_vs_workstations`` bench sweeps, because the
directory service is the coherence plane's shared point as
workstations multiply (the file server is shielded by the byte cache).

A vanished file (the name moved on and the superseded version was
disposed of) is not an error surface: reads retry through a *forced*
currency check — name-mediated recovery, the server never notifies.
"""

from __future__ import annotations

from typing import Optional

from ..capability import Capability
from ..errors import BadRequestError, CapabilityError, NotFoundError
from ..obs import MetricsRegistry, RegistryStats
from .bullet_client import CachingBulletClient

__all__ = ["CurrencyPolicy", "NamedFile", "NamedFileClient",
           "CoherenceStats"]

#: How many vanished-file recovery rounds one read attempts before
#: giving up; each round is a fresh directory check + fetch, so more
#: than a couple means the name is being rebound faster than a file
#: can be fetched.
_MAX_REFETCH_ROUNDS = 8

#: What a capability to a *vanished* file surfaces as. NotFoundError
#: when the object slot is simply free; CapabilityError when the server
#: has already reused the object number for a new incarnation (the old
#: capability's check field no longer verifies). Either way the §5
#: answer is the same: ask the directory what the name means now.
_GONE_ERRORS = (NotFoundError, CapabilityError)


class CoherenceStats(RegistryStats):
    """Per-workstation counters of the coherence plane, as a facade
    over the shared registry (``repro_client_coherence_*_total``)."""

    _PREFIX = "repro_client_coherence"
    _COUNTER_FIELDS = (
        "opens",
        "binds",
        "checks",
        "stale",
        "revalidations",
        "dir_rpcs",
    )


class CurrencyPolicy:
    """When an ``open`` re-checks a name binding against the directory.

    ``always`` re-checks every open; ``after(T)`` re-checks once the
    binding is at least ``T`` simulated seconds old; ``session`` checks
    only at bind time. Stronger currency costs more directory RPCs —
    the trade-off the bench measures.
    """

    ALWAYS = "always"
    AFTER = "after"
    SESSION = "session"

    __slots__ = ("kind", "interval")

    def __init__(self, kind: str, interval: float = 0.0):
        if kind not in (self.ALWAYS, self.AFTER, self.SESSION):
            raise BadRequestError(f"unknown currency policy {kind!r}")
        if kind == self.AFTER and interval <= 0.0:
            raise BadRequestError(
                "check-after policy needs a positive interval"
            )
        self.kind = kind
        self.interval = interval

    @classmethod
    def always(cls) -> "CurrencyPolicy":
        """Check on every open."""
        return cls(cls.ALWAYS)

    @classmethod
    def after(cls, interval: float) -> "CurrencyPolicy":
        """Check when the binding is older than ``interval`` sim-seconds."""
        return cls(cls.AFTER, interval)

    @classmethod
    def session(cls) -> "CurrencyPolicy":
        """Bind once, never re-check."""
        return cls(cls.SESSION)

    def due(self, now: float, checked_at: float) -> bool:
        """Whether a binding last checked at ``checked_at`` must be
        re-validated at sim-time ``now``."""
        if self.kind == self.ALWAYS:
            return True
        if self.kind == self.SESSION:
            return False
        return now - checked_at >= self.interval

    def __repr__(self) -> str:
        if self.kind == self.AFTER:
            return f"CurrencyPolicy.after({self.interval!r})"
        return f"CurrencyPolicy.{self.kind}()"


class _Binding:
    """One name's cached resolution: the capability the workstation's
    copy is based on, and when the directory last confirmed it."""

    __slots__ = ("cap", "checked_at")

    def __init__(self, cap: Capability, checked_at: float):
        self.cap = cap
        self.checked_at = checked_at


class NamedFile:
    """An open name: a handle pairing the name with the capability its
    binding resolved to. Reads go back through the session, so a
    handle held across a rebind recovers via the forced re-check path
    instead of failing."""

    __slots__ = ("session", "name", "cap")

    def __init__(self, session: "NamedFileClient", name: str,
                 cap: Capability):
        self.session = session
        self.name = name
        self.cap = cap

    def read(self):
        """Process: the whole file this name currently denotes."""
        return (yield from self.session.read_open(self))

    def size(self):
        """Process: the file's size in bytes."""
        return (yield from self.session.size_open(self))


class NamedFileClient:
    """One workstation's open-by-name session over the caching plane.

    ``client`` is the workstation's :class:`CachingBulletClient` (whose
    :class:`~repro.client.WorkstationCache` holds the bytes and the
    capability evidence); ``directory`` is anything speaking the
    directory protocol (:class:`~repro.client.DirectoryClient` over
    RPC, or a local :class:`~repro.directory.DirectoryServer`);
    ``dir_cap`` names the directory the session resolves names in.
    """

    def __init__(self, client: CachingBulletClient, directory,
                 dir_cap: Capability,
                 policy: Optional[CurrencyPolicy] = None,
                 name: str = "workstation",
                 metrics: Optional[MetricsRegistry] = None):
        self.client = client
        self.env = client.env
        self.cache = client.cache
        self.directory = directory
        self.dir_cap = dir_cap
        self.policy = policy if policy is not None else CurrencyPolicy.always()
        self.name = name
        registry = metrics if metrics is not None else client.cache.metrics
        self.stats = CoherenceStats(registry, workstation=name)
        self._c_opens = self.stats.handle("opens")
        self._c_binds = self.stats.handle("binds")
        self._c_checks = self.stats.handle("checks")
        self._c_stale = self.stats.handle("stale")
        self._c_revalidations = self.stats.handle("revalidations")
        self._c_dir_rpcs = self.stats.handle("dir_rpcs")
        self._bindings: dict[str, _Binding] = {}

    # -------------------------------------------------------------- opens

    def open(self, name: str, check: Optional[bool] = None):
        """Process: resolve ``name`` to a :class:`NamedFile`.

        An unbound name costs one directory LOOKUP (the bind); a bound
        one runs the §5 currency check when the session's policy says
        it is due (``check=True``/``False`` forces or suppresses the
        check regardless of policy). A stale binding invalidates the
        workstation-cache entry it pointed at, rebinds, and re-fetches
        the fresh bytes, so the returned handle reads current data.
        """
        self._c_opens.inc(1)
        binding = self._bindings.get(name)
        if binding is None:
            binding = yield from self._bind(name)
            return NamedFile(self, name, binding.cap)
        due = (self.policy.due(self.env.now, binding.checked_at)
               if check is None else check)
        if due:
            yield from self._revalidate(name, binding)
        return NamedFile(self, name, binding.cap)

    def read(self, name: str):
        """Process: open + whole-file read — the coherence plane's unit
        operation (what the bench counts as one op)."""
        handle = yield from self.open(name)
        return (yield from self.read_open(handle))

    def forget(self, name: str) -> None:
        """Drop the local binding (the next open re-binds). The byte
        cache is untouched: the entry stays valid for its capability."""
        self._bindings.pop(name, None)

    # ------------------------------------------------------ handle access

    def read_open(self, handle: NamedFile):
        """Process: whole-file read under an open handle. A vanished
        file — the name was rebound and the superseded version disposed
        of between our check and the fetch — forces a fresh currency
        check and a retry: name-mediated recovery, bounded rounds."""
        for _ in range(_MAX_REFETCH_ROUNDS):
            try:
                return (yield from self.client.read(handle.cap))
            except _GONE_ERRORS:
                yield from self._recover(handle)
        raise NotFoundError(
            f"{handle.name!r}: rebound faster than it could be fetched "
            f"({_MAX_REFETCH_ROUNDS} recovery rounds)"
        )

    def size_open(self, handle: NamedFile):
        """Process: file size under an open handle, with the same
        vanished-file recovery as :meth:`read_open`."""
        for _ in range(_MAX_REFETCH_ROUNDS):
            try:
                return (yield from self.client.size(handle.cap))
            except _GONE_ERRORS:
                yield from self._recover(handle)
        raise NotFoundError(
            f"{handle.name!r}: rebound faster than it could be sized "
            f"({_MAX_REFETCH_ROUNDS} recovery rounds)"
        )

    # ------------------------------------------------------------ writers

    def publish(self, name: str, data: bytes, p_factor: int = 1,
                mask: Optional[int] = None):
        """Process: the writer side of the coherence plane. Creates an
        immutable file from ``data`` and atomically rebinds ``name`` to
        it (APPEND on first publish, REPLACE after) — the §5 version
        flip other workstations discover through their currency checks;
        the file server is never told.

        ``mask`` publishes a restricted capability (e.g. read-only)
        while the returned owner capability stays with the caller — the
        usual shape: readers get rights-limited capabilities, the
        writer keeps disposal rights over superseded versions.

        Returns ``(owner_cap, old_primary)`` where ``old_primary`` is
        the capability the name was bound to before (None on first
        publish); disposing of it is the caller's decision — readers
        mid-fetch recover through their own re-check.
        """
        owner = yield from self.client.create(data, p_factor)
        bound = owner
        if mask is not None:
            bound = yield from self.client.restrict(owner, mask)
        self._c_dir_rpcs.inc(1)
        try:
            old = yield from self.directory.replace(self.dir_cap, name, bound)
        except NotFoundError:
            self._c_dir_rpcs.inc(1)
            yield from self.directory.append(self.dir_cap, name, bound)
            old = None
        binding = self._bindings.get(name)
        if binding is None:
            self._bindings[name] = _Binding(bound, self.env.now)
        else:
            if old is not None:
                self.cache.invalidate(binding.cap)
            binding.cap = bound
            binding.checked_at = self.env.now
        return owner, old

    # ----------------------------------------------------------- internals

    def _bind(self, name: str):
        """Process: cold directory lookup; installs and returns the
        binding (the full capability set's primary member)."""
        self._c_dir_rpcs.inc(1)
        caps = yield from self.directory.lookup_set(self.dir_cap, name)
        binding = _Binding(caps[0], self.env.now)
        self._bindings[name] = binding
        self._c_binds.inc(1)
        return binding

    def _revalidate(self, name: str, binding: _Binding):
        """Process: one §5 currency check for ``name``. A current
        binding just refreshes its timestamp; a stale one invalidates
        the workstation-cache entry it pointed at, rebinds to what the
        directory says now, and re-fetches the fresh bytes (so sibling
        opens hit). Returns True when the binding moved."""
        moved = False
        for _ in range(_MAX_REFETCH_ROUNDS):
            self._c_checks.inc(1)
            self._c_dir_rpcs.inc(1)
            current, cap = yield from self.client.lookup_validated(
                self.directory, self.dir_cap, name, binding.cap)
            if current:
                binding.checked_at = self.env.now
                return moved
            self._c_stale.inc(1)
            moved = True
            self.cache.invalidate(binding.cap)
            binding.cap = cap
            try:
                yield from self.client.read(cap)
            except _GONE_ERRORS:
                # Rebound again under our feet and the fetched version
                # disposed of; go around for the newest binding.
                continue
            self._c_revalidations.inc(1)
            binding.checked_at = self.env.now
            return moved
        raise NotFoundError(
            f"{name!r}: rebound faster than it could be revalidated "
            f"({_MAX_REFETCH_ROUNDS} rounds)"
        )

    def _recover(self, handle: NamedFile):
        """Process: the handle's file vanished; force a currency check
        (whatever the policy) and repoint the handle."""
        binding = self._bindings.get(handle.name)
        if binding is None:
            binding = yield from self._bind(handle.name)
        else:
            yield from self._revalidate(handle.name, binding)
        handle.cap = binding.cap
