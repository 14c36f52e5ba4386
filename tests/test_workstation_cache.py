"""Tests for the §5 client caching plane: the shared WorkstationCache,
local capability verification, and the CachingBulletClient regressions
fixed in the same PR (re-admission double-counting, missing
restrict/stat delegation, SIZE bypassing recency/counters, and DELETE
invalidating before the server confirmed)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import (
    ALL_RIGHTS,
    Capability,
    RIGHT_DELETE,
    RIGHT_READ,
    mint_owner,
    restrict,
)
from repro.client import (
    BulletClient,
    CachingBulletClient,
    LocalBulletStub,
    WorkstationCache,
)
from repro.errors import (
    CapabilityError,
    NotFoundError,
    RightsError,
)
from repro.faults import FaultController, FaultPlan
from repro.net import Ethernet, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, SeededStream, Tracer, run_process
from repro.client.retry import RetryPolicy
from repro.units import KB

from conftest import make_bullet


PORT = 0xB17E


def owner(obj: int, secret: int = 0x1234) -> Capability:
    return mint_owner(PORT, obj, secret * (obj + 1))


@pytest.fixture
def rpc_rig(env):
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    client = BulletClient(env, rpc, bullet.port)
    return bullet, client


# ----------------------------------------------------- cache unit tests


def test_admit_and_lookup_roundtrip():
    cache = WorkstationCache(64 * KB)
    cap = owner(1)
    assert cache.admit(cap, b"bytes")
    result = cache.lookup(cap, RIGHT_READ)
    assert result.hit and result.data == b"bytes"
    assert cache.stats.hits.value == 1 and cache.stats.lookups.value == 1
    assert cache.stats.bytes_saved.value == 5


def test_readmission_does_not_double_count():
    """Regression: a concurrent sharer re-admitting a resident file used
    to bump the byte accounting again, inflating cached_bytes until
    phantom evictions thrashed the cache."""
    cache = WorkstationCache(64 * KB)
    cap = owner(1)
    data = b"x" * KB
    for _ in range(5):
        assert cache.admit(cap, data)
    assert cache.cached_bytes == KB
    assert cache.audit() == KB


def test_readmission_merges_verification_state():
    cache = WorkstationCache(64 * KB)
    own = owner(1)
    reader = restrict(own, RIGHT_READ)
    # First sharer fetched under the restricted cap: no secret known.
    assert cache.admit(reader, b"data")
    assert not cache.lookup(own, RIGHT_READ).hit  # owner pair unknown
    # Second sharer re-admits under the owner cap: secret learned, so
    # any rights subset now verifies locally.
    assert cache.admit(own, b"data")
    other = restrict(own, RIGHT_READ | RIGHT_DELETE)
    assert cache.lookup(other, RIGHT_READ).hit
    assert cache.cached_bytes == 4


def test_reincarnated_object_replaces_entry():
    cache = WorkstationCache(64 * KB)
    stale = owner(1, secret=0x1111)
    fresh = owner(1, secret=0x2222)
    assert cache.admit(stale, b"old bytes")
    assert cache.admit(fresh, b"new")
    assert cache.lookup(fresh, RIGHT_READ).data == b"new"
    # The stale capability no longer verifies against the new secret.
    assert not cache.lookup(stale, RIGHT_READ).hit
    assert cache.audit() == 3


def test_lru_eviction_order_and_budget():
    cache = WorkstationCache(8 * KB)
    a, b, c = owner(1), owner(2), owner(3)
    assert cache.admit(a, b"a" * (4 * KB))
    assert cache.admit(b, b"b" * (4 * KB))
    cache.lookup(a, RIGHT_READ)  # refresh a: b becomes LRU
    assert cache.admit(c, b"c" * (4 * KB))
    assert a in cache and c in cache and b not in cache
    assert cache.stats.evictions.value == 1
    assert cache.audit() == 8 * KB


def test_oversized_file_rejected():
    cache = WorkstationCache(1 * KB)
    assert not cache.admit(owner(1), b"z" * (2 * KB))
    assert cache.cached_bytes == 0


def test_bytes_gauge_tracks_usage():
    cache = WorkstationCache(8 * KB, name="ws-gauge")
    gauge = cache.metrics.gauge("repro_client_cache_bytes",
                                workstation="ws-gauge")
    cache.admit(owner(1), b"a" * KB)
    assert gauge.value == KB
    cache.invalidate(owner(1))
    assert gauge.value == 0


def test_local_verification_from_owner_secret():
    """Admitting under the owner capability teaches the cache the
    object's secret; a never-seen restricted capability then verifies
    locally (one OWF derivation), and a forged one misses."""
    cache = WorkstationCache(64 * KB, cpu=CpuProfile())
    own = owner(1)
    assert cache.admit(own, b"data")
    reader = restrict(own, RIGHT_READ)
    first = cache.lookup(reader, RIGHT_READ)
    assert first.hit
    assert first.verify_cost == CpuProfile().capability_check
    assert cache.stats.local_verifies.value == 1
    # The pair is memoized: the second lookup is free.
    second = cache.lookup(reader, RIGHT_READ)
    assert second.hit and second.verify_cost == 0.0
    assert cache.stats.local_verifies.value == 1
    forged = Capability(port=PORT, object=1, rights=RIGHT_READ,
                        check=(reader.check ^ 1))
    assert not cache.lookup(forged, RIGHT_READ).hit
    assert cache.stats.misses.value == 1


def test_genuine_capability_without_rights_is_denied_locally():
    cache = WorkstationCache(64 * KB)
    own = owner(1)
    cache.admit(own, b"data")
    deleter = restrict(own, RIGHT_DELETE)
    result = cache.lookup(deleter, RIGHT_READ)
    assert result.denied and result.data is None
    # Denied is an authoritative local answer: a hit, an RPC avoided.
    assert cache.stats.hits.value == 1 and cache.stats.rpcs_avoided.value == 1


def test_restricted_only_admission_cannot_verify_other_pairs():
    """Without the owner capability the cache holds no secret: only the
    exact (rights, check) pair that fetched the bytes hits; the server
    stays the authority for everything else."""
    cache = WorkstationCache(64 * KB)
    own = owner(1)
    reader = restrict(own, RIGHT_READ)
    cache.admit(reader, b"data")
    assert cache.lookup(reader, RIGHT_READ).hit
    other = restrict(own, RIGHT_READ | RIGHT_DELETE)
    assert not cache.lookup(other, RIGHT_READ).hit
    assert cache.stats.local_verifies.value == 0


def test_rejects_bad_capacity():
    for bad in (0, -1, None):
        with pytest.raises(ValueError):
            WorkstationCache(bad)


# --------------------------------------- the accounting property (A5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["admit", "lookup", "invalidate"]),
    st.integers(min_value=0, max_value=5),     # object number
    st.integers(min_value=1, max_value=6),     # size in KB
), max_size=40))
def test_accounting_invariant_under_random_interleavings(ops):
    """``cached_bytes == sum(len(entry))`` and never above the budget,
    under any admit/evict/invalidate interleaving — the invariant the
    double-count bug violated."""
    cache = WorkstationCache(8 * KB)
    for kind, obj, size_kb in ops:
        cap = owner(obj)
        if kind == "admit":
            assert cache.admit(cap, bytes([obj]) * (size_kb * KB))
            assert cap in cache
        elif kind == "lookup":
            assert cache.lookup(cap, RIGHT_READ).hit == (cap in cache)
        elif kind == "invalidate":
            resident = cap in cache
            assert cache.invalidate(cap) == resident
            assert cap not in cache
        assert cache.audit() <= cache.capacity
    stats = cache.stats
    assert stats.hits.value + stats.misses.value == stats.lookups.value


# ------------------------------------------- caching client, end to end


def test_shared_cache_across_sharers_avoids_server(env, rpc_rig):
    """Two client processes on one workstation share one cache: the
    second sharer's first read of a file the first sharer fetched is a
    hit — no network, no server."""
    bullet, client = rpc_rig
    shared = WorkstationCache(64 * KB, metrics=client.metrics,
                              cpu=CpuProfile())
    one = CachingBulletClient(client, cache=shared)
    two = CachingBulletClient(client, cache=shared)
    cap = run_process(env, one.create(b"shared bytes", 1))
    run_process(env, one.read(cap))
    reads = bullet.stats.reads.value
    assert run_process(env, two.read(cap)) == b"shared bytes"
    assert bullet.stats.reads.value == reads
    assert one.misses == 1 and two.hits == 1
    assert shared.stats.hits.value == 1 and shared.stats.misses.value == 1


def test_concurrent_sharer_miss_storm_accounts_once(env, rpc_rig):
    """N processes fault the same cold file through one shared cache at
    the same instant: every probe misses (nobody has admitted yet), the
    re-admissions merge, and the accounting ends exact."""
    bullet, client = rpc_rig
    shared = WorkstationCache(64 * KB, metrics=client.metrics)
    caching = CachingBulletClient(client, cache=shared)
    payload = b"storm" * 512
    cap = run_process(env, caching.create(payload, 1))
    got = []

    def sharer():
        data = yield from caching.read(cap)
        got.append(data)

    waits = [env.process(sharer()) for _ in range(6)]
    for wait in waits:
        env.run(until=wait)
    assert got == [payload] * 6
    assert shared.audit() == len(payload)
    stats = shared.stats
    assert stats.hits.value + stats.misses.value == stats.lookups.value
    # And the file is now hot: one more read touches no server.
    reads = bullet.stats.reads.value
    run_process(env, caching.read(cap))
    assert bullet.stats.reads.value == reads


def test_restricted_read_hits_after_owner_admission(env, rpc_rig):
    """The §5 + §2.1 composition: fetch under the owner capability,
    restrict locally, then read under the restriction — the cache
    verifies the restricted check field against the owner's secret and
    serves from RAM. Zero server READs for the whole second step."""
    bullet, client = rpc_rig
    caching = CachingBulletClient(client, WorkstationCache(64 * KB))
    cap = run_process(env, caching.create(b"restricted read", 1))
    run_process(env, caching.read(cap))
    reads = bullet.stats.reads.value
    restricts = bullet.stats.restricts.value
    reader = run_process(env, caching.restrict(cap, RIGHT_READ))
    assert reader.rights == RIGHT_READ
    assert run_process(env, caching.read(reader)) == b"restricted read"
    assert bullet.stats.reads.value == reads          # served locally
    assert bullet.stats.restricts.value == restricts  # restricted locally
    assert caching.cache.stats.rpcs_avoided.value >= 2


def test_restrict_of_restricted_cap_delegates_to_server(env, rpc_rig):
    """Regression: restrict() used to be missing from the caching
    wrapper entirely (AttributeError). A non-owner capability cannot be
    restricted locally, so the wrapper must delegate to the server."""
    bullet, client = rpc_rig
    caching = CachingBulletClient(client, WorkstationCache(64 * KB))
    cap = run_process(env, caching.create(b"x", 1))
    both = run_process(env,
                       caching.restrict(cap, RIGHT_READ | RIGHT_DELETE))
    restricts = bullet.stats.restricts.value
    reader = run_process(env, caching.restrict(both, RIGHT_READ))
    assert reader.rights == RIGHT_READ
    assert bullet.stats.restricts.value == restricts + 1
    assert run_process(env, caching.read(reader)) == b"x"


def test_stat_delegates(env, rpc_rig):
    """Regression: stat() was also missing from the wrapper."""
    _bullet, client = rpc_rig
    caching = CachingBulletClient(client, WorkstationCache(64 * KB))
    cap = run_process(env, caching.create(b"x", 1))
    status = run_process(env, caching.stat(cap))
    assert status["files"] == 1


def test_size_hit_refreshes_recency_and_counts(env, rpc_rig):
    """Regression: SIZE answered from the cache without touching the
    LRU order or the hit counters, so hot sized files aged straight to
    eviction while the stats claimed the cache was cold."""
    _bullet, client = rpc_rig
    caching = CachingBulletClient(client, WorkstationCache(8 * KB))
    a = run_process(env, caching.create(b"a" * (4 * KB), 1))
    b = run_process(env, caching.create(b"b" * (4 * KB), 1))
    run_process(env, caching.read(a))
    run_process(env, caching.read(b))
    hits = caching.hits
    assert run_process(env, caching.size(a)) == 4 * KB
    assert caching.hits == hits + 1  # the counter regression
    c = run_process(env, caching.create(b"c" * (4 * KB), 1))
    run_process(env, caching.read(c))
    # The size() touch made `a` most-recent, so `b` was the victim.
    assert a in caching.cache and b not in caching.cache


def test_forged_capability_falls_through_to_server(env, rpc_rig):
    """A capability that fails local verification is a miss, and the
    server — the authority — rejects it; the cached entry survives."""
    bullet, client = rpc_rig
    caching = CachingBulletClient(client, WorkstationCache(64 * KB))
    cap = run_process(env, caching.create(b"genuine", 1))
    run_process(env, caching.read(cap))
    forged = Capability(port=cap.port, object=cap.object,
                        rights=cap.rights, check=cap.check ^ 1)

    def attempt():
        try:
            yield from caching.read(forged)
        except CapabilityError:
            return "rejected"

    assert run_process(env, attempt()) == "rejected"
    assert forged not in caching.cache or cap in caching.cache
    assert run_process(env, caching.read(cap)) == b"genuine"


def test_rights_denial_is_local(env, rpc_rig):
    """A genuine capability lacking READ is refused on the workstation:
    RightsError without a single server round trip."""
    bullet, client = rpc_rig
    caching = CachingBulletClient(client, WorkstationCache(64 * KB))
    cap = run_process(env, caching.create(b"no reading", 1))
    run_process(env, caching.read(cap))
    deleter = run_process(env, caching.restrict(cap, RIGHT_DELETE))
    reads = bullet.stats.reads.value
    errors = bullet.stats.errors.value

    def attempt():
        try:
            yield from caching.read(deleter)
        except RightsError:
            return "denied"

    assert run_process(env, attempt()) == "denied"
    assert bullet.stats.reads.value == reads
    assert bullet.stats.errors.value == errors  # the server never saw it


# ------------------------------------------------- DELETE invalidation


class _CountingCache(WorkstationCache):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.invalidations = 0

    def invalidate(self, cap):
        dropped = super().invalidate(cap)
        if dropped:
            self.invalidations += 1
        return dropped


def test_failed_delete_keeps_cached_entry(env, rpc_rig):
    """Regression: delete() used to invalidate before calling the
    server, so a DELETE refused for missing rights still evicted a
    perfectly valid immutable entry."""
    bullet, client = rpc_rig
    cache = _CountingCache(64 * KB, metrics=client.metrics)
    caching = CachingBulletClient(client, cache=cache)
    cap = run_process(env, caching.create(b"keep me", 1))
    run_process(env, caching.read(cap))
    reader = run_process(env, caching.restrict(cap, RIGHT_READ))

    def attempt():
        try:
            yield from caching.delete(reader)
        except RightsError:
            return "refused"

    assert run_process(env, attempt()) == "refused"
    assert cache.invalidations == 0
    assert cap in cache
    # Still a hit — no refetch needed after the failed delete.
    reads = bullet.stats.reads.value
    assert run_process(env, caching.read(cap)) == b"keep me"
    assert bullet.stats.reads.value == reads


def test_successful_delete_invalidates_exactly_once(env, rpc_rig):
    bullet, client = rpc_rig
    cache = _CountingCache(64 * KB, metrics=client.metrics)
    caching = CachingBulletClient(client, cache=cache)
    cap = run_process(env, caching.create(b"bye", 1))
    run_process(env, caching.read(cap))
    run_process(env, caching.delete(cap))
    assert cache.invalidations == 1
    assert cap not in cache
    with pytest.raises(NotFoundError):
        run_process(env, caching.read(cap))


def test_delete_retried_under_loss_invalidates_exactly_once(env):
    """DELETE under a lossy network: the retry layer re-sends the same
    txid, the server's reply cache dedupes execution, and the cache
    invalidation runs exactly once — after the confirmed success."""
    tracer = Tracer(env)
    eth = Ethernet(env, EthernetProfile())
    rpc = RpcTransport(env, eth, CpuProfile())
    bullet = make_bullet(env, transport=rpc)
    client = BulletClient(
        env, rpc, bullet.port, timeout=0.4,
        retry=RetryPolicy(max_attempts=8, base_delay=0.2, max_delay=1.0),
        retry_stream=SeededStream(11, "client-retry"), tracer=tracer,
    )
    cache = _CountingCache(64 * KB, metrics=client.metrics)
    caching = CachingBulletClient(client, cache=cache)
    cap = run_process(env, caching.create(b"lossy delete", 1))
    run_process(env, caching.read(cap))
    plan = FaultPlan().net_loss(at=env.now + 0.05, duration=2.0,
                                probability=0.6)
    ctrl = FaultController(env, plan, master_seed=11, tracer=tracer)
    ctrl.attach_ethernet("net", eth).start()

    def workload():
        yield env.timeout(0.1)  # into the loss window
        yield from caching.delete(cap)

    run_process(env, workload())
    assert client.retrier.retries >= 1   # the loss actually bit
    assert bullet.stats.deletes.value == 1     # txid dedupe: one execution
    assert cache.invalidations == 1      # and one invalidation
    assert cap not in cache


# --------------------------- trust: only proven capabilities register


def test_forged_owner_cannot_poison_cache_via_restrict():
    """Regression (review): the local-restrict path used to take the
    caller's word for an owner-shaped capability, overwriting the
    entry's secret and minting verified pairs from a forgery. The cache
    restricts only an owner capability it can prove against its own
    evidence."""
    cache = WorkstationCache(64 * KB)
    own = owner(1)
    reader = restrict(own, RIGHT_READ)
    assert cache.admit(reader, b"data")  # secret unknown to the cache
    forged_owner = Capability(port=PORT, object=1, rights=ALL_RIGHTS,
                              check=own.check ^ 0xBAD)
    assert cache.restrict(forged_owner, RIGHT_READ) is None
    # Neither forged capability hits — they miss through to the server —
    # and the genuine pair that admitted the entry still verifies.
    assert not cache.lookup(forged_owner, RIGHT_READ).hit
    assert not cache.lookup(restrict(forged_owner, RIGHT_READ),
                            RIGHT_READ).hit
    assert cache.lookup(reader, RIGHT_READ).hit
    assert cache.stats.rpcs_avoided.value == 1  # the genuine hit only


def test_local_restrict_seeds_from_proven_owner():
    """An owner capability that admitted the entry is restricted
    locally for one one-way function, and the restriction is memoized,
    so the later read is a known-pair hit with zero check-field work."""
    cpu = CpuProfile()
    cache = WorkstationCache(64 * KB, cpu=cpu)
    own = owner(1)
    assert cache.admit(own, b"data")
    derived, cost = cache.restrict(own, RIGHT_READ)
    assert derived == restrict(own, RIGHT_READ)
    assert cost == cpu.capability_check
    assert cache.restrict(own, ALL_RIGHTS) == (own, 0.0)  # nothing to derive
    result = cache.lookup(derived, RIGHT_READ)
    assert result.hit and result.verify_cost == 0.0
    assert cache.stats.local_verifies.value == 0
    assert cache.stats.rpcs_avoided.value == 3


def test_forged_owner_restrict_goes_to_server_and_fails(env, rpc_rig):
    """Regression (review): restrict() trusted any ALL_RIGHTS-shaped
    capability, derived a plausible-looking restriction locally, and
    poisoned the shared cache so forged owner and forged restricted
    capabilities were served file bytes from RAM. A forged owner
    capability must fall through to the server, which rejects it, and
    the cache's verification state must survive intact."""
    bullet, client = rpc_rig
    caching = CachingBulletClient(client, WorkstationCache(64 * KB))
    cap = run_process(env, caching.create(b"genuine", 1))
    run_process(env, caching.read(cap))
    genuine_reader = run_process(env, caching.restrict(cap, RIGHT_READ))
    forged = Capability(port=cap.port, object=cap.object,
                        rights=ALL_RIGHTS, check=cap.check ^ 1)

    def attempt(op):
        try:
            yield from op
        except CapabilityError:
            return "rejected"

    assert run_process(env,
                       attempt(caching.restrict(forged, RIGHT_READ))) \
        == "rejected"
    # Genuine capabilities still verify locally (no refetch)...
    reads = bullet.stats.reads.value
    assert run_process(env, caching.read(genuine_reader)) == b"genuine"
    assert bullet.stats.reads.value == reads
    # ...and a restriction derived from the forgery misses through to
    # the server, which rejects it too.
    forged_reader = restrict(forged, RIGHT_READ)
    assert run_process(env, attempt(caching.read(forged_reader))) \
        == "rejected"


def test_restrict_of_uncached_owner_cap_delegates_to_server(env, rpc_rig):
    """An owner capability for an object the cache holds no evidence
    about cannot be vouched for locally: restrict() asks the server,
    preserving the pre-cache error semantics for forgeries."""
    bullet, client = rpc_rig
    caching = CachingBulletClient(client, WorkstationCache(64 * KB))
    cap = run_process(env, caching.create(b"x", 1))
    restricts = bullet.stats.restricts.value
    reader = run_process(env, caching.restrict(cap, RIGHT_READ))
    assert reader.rights == RIGHT_READ
    assert bullet.stats.restricts.value == restricts + 1
    assert run_process(env, caching.read(reader)) == b"x"


def test_reincarnation_with_identical_bytes_resets_verification():
    """Regression (review): an unseen delete + recreate reusing the
    object number with identical contents used to merge verification
    state, so the dead incarnation's capabilities kept hitting. An
    admitting (server-proven) capability that mismatches the known
    secret now resets the entry's evidence."""
    cache = WorkstationCache(64 * KB)
    stale = owner(1, secret=0x1111)
    fresh = owner(1, secret=0x2222)
    assert cache.admit(stale, b"same bytes")
    stale_reader = restrict(stale, RIGHT_READ)
    assert cache.lookup(stale_reader, RIGHT_READ).hit
    # Unseen delete + recreate: same object number, same contents.
    assert cache.admit(fresh, b"same bytes")
    # The revoked incarnation misses through to the server...
    assert not cache.lookup(stale, RIGHT_READ).hit
    assert not cache.lookup(stale_reader, RIGHT_READ).hit
    # ...while the current one verifies, including fresh derivations.
    assert cache.lookup(fresh, RIGHT_READ).hit
    assert cache.lookup(restrict(fresh, RIGHT_READ), RIGHT_READ).hit
    assert cache.audit() == len(b"same bytes")


def test_restricted_readmission_without_secret_keeps_only_its_own_pair():
    """Regression: with no secret known, a same-bytes re-admission under
    a restricted capability used to merge its pair into the entry. A
    pair with the same rights and another check field is another
    incarnation's, so the dead incarnation's reader kept hitting; one
    with other rights cannot be linked without the secret. Both are
    dropped."""
    cache = WorkstationCache(64 * KB)
    stale, fresh = owner(1, secret=0x1111), owner(1, secret=0x2222)
    stale_reader = restrict(stale, RIGHT_READ)
    assert cache.admit(stale_reader, b"same bytes")
    assert cache.admit(restrict(fresh, RIGHT_READ), b"same bytes")
    assert not cache.lookup(stale_reader, RIGHT_READ).hit
    assert cache.lookup(restrict(fresh, RIGHT_READ), RIGHT_READ).hit
    # Same incarnation, other rights: unlinkable, so dropped too.
    both = restrict(fresh, RIGHT_READ | RIGHT_DELETE)
    assert cache.admit(both, b"same bytes")
    assert cache.lookup(both, RIGHT_READ).hit
    assert not cache.lookup(restrict(fresh, RIGHT_READ), RIGHT_READ).hit
    assert cache.stats.local_verifies.value == 0


def test_owner_readmission_keeps_only_the_pairs_it_proves():
    """A same-bytes re-admission under an owner capability keeps the
    pairs that verify against its check field (its own incarnation's)
    and learns the secret; another incarnation's pairs go."""
    stale, fresh = owner(1, secret=0x1111), owner(1, secret=0x2222)
    for first, kept in ((restrict(fresh, RIGHT_READ), True),
                        (restrict(stale, RIGHT_READ), False)):
        cache = WorkstationCache(64 * KB)
        assert cache.admit(first, b"same bytes")
        assert cache.admit(fresh, b"same bytes")
        assert cache.stats.local_verifies.value == 0  # admission is free
        assert cache.restrict(fresh, RIGHT_DELETE) is not None
        assert cache.lookup(first, RIGHT_READ).hit == kept


# ------------------------------- attacks against the cache, one table


class _Directory:
    """A directory binding one name to a fixed capability set."""

    def __init__(self, caps):
        self.caps = caps

    def lookup_set(self, dir_cap, name):
        return self.caps
        yield


PAYLOAD = b"one incarnation's bytes"


def _attack_rig(env, secret_known):
    """A workstation that cached an object, missed its delete, and
    cached its same-bytes successor under the same object number —
    under owner capabilities when ``secret_known``, under server-minted
    read-only restrictions otherwise."""
    bullet = make_bullet(env)
    server = LocalBulletStub(bullet)
    caching = CachingBulletClient(server, WorkstationCache(
        64 * KB, cpu=CpuProfile()))

    def fetch_under(own):
        cap = own if secret_known else run_process(
            env, server.restrict(own, RIGHT_READ))
        assert run_process(env, caching.read(cap)) == PAYLOAD

    dead = run_process(env, server.create(PAYLOAD, 1))
    fetch_under(dead)
    run_process(env, server.delete(dead))  # by another workstation
    own = run_process(env, server.create(PAYLOAD, 1))
    assert own.object == dead.object
    fetch_under(own)
    return bullet, caching, dead, own


#: Each attack: the capability it presents (owner-shaped where only an
#: owner capability could be served locally, read-only elsewhere), from
#: the dead and the current owner capability.
_ATTACKS = {
    "forged": lambda dead, own, shape: replace(
        restrict(own, shape), check=restrict(own, shape).check ^ 1),
    "dead_incarnation": lambda dead, own, shape: restrict(dead, shape),
    "lacks_rights": lambda dead, own, shape: restrict(own, RIGHT_DELETE),
}

#: What each entry point that can answer without the server must do
#: with each attack: raise what the server raises, or answer as below.
_OUTCOMES = {
    "forged": {"read": CapabilityError, "size": CapabilityError,
               "restrict": CapabilityError, "lookup_validated": "stale"},
    "dead_incarnation": {"read": CapabilityError, "size": CapabilityError,
                         "restrict": CapabilityError,
                         "lookup_validated": "stale"},
    "lacks_rights": {"read": RightsError, "size": RightsError,
                     "restrict": "no amplification",
                     "lookup_validated": "proven lineage"},
}


@pytest.mark.parametrize("secret_known", [True, False],
                         ids=["secret_known", "secret_unknown"])
@pytest.mark.parametrize("entry", ["read", "size", "restrict",
                                   "lookup_validated"])
@pytest.mark.parametrize("attack", list(_ATTACKS))
def test_no_attack_is_answered_from_the_cache(env, attack, entry,
                                              secret_known):
    """The cache-side twin of the server's capability table: a forged
    check field, a dead incarnation's capability and a genuine one
    lacking rights, against every client entry point that can answer
    without the server, with the object's secret known to the
    workstation and not. No forged or dead capability is ever served
    cached bytes or vouched current, and rights never grow."""
    bullet, caching, dead, own = _attack_rig(env, secret_known)
    shape = ALL_RIGHTS if entry == "restrict" else RIGHT_READ
    presented = _ATTACKS[attack](dead, own, shape)
    outcome = _OUTCOMES[attack][entry]
    if entry == "lookup_validated":
        binding = restrict(own, RIGHT_READ)
        current, cap = run_process(env, caching.lookup_validated(
            _Directory([binding]), None, "doc", presented))
        assert cap == binding
        # A genuine capability lacking rights is the current
        # incarnation, provably so only by a workstation that knows the
        # secret; an unprovable pair compares stale (a spurious refetch).
        assert current == (outcome == "proven lineage" and secret_known)
    elif entry == "restrict" and outcome == "no amplification":
        restricted = run_process(env, caching.restrict(
            presented, RIGHT_READ | RIGHT_DELETE))
        assert restricted.rights == RIGHT_DELETE
        assert run_process(env, LocalBulletStub(bullet).stat(restricted))
    else:
        operation = getattr(caching, entry)
        args = (RIGHT_READ,) if entry == "restrict" else ()
        with pytest.raises(outcome):
            run_process(env, operation(presented, *args))
    # Refused means refused: the current incarnation still hits.
    reads = bullet.stats.reads.value
    assert run_process(env, caching.read(
        own if secret_known else restrict(own, RIGHT_READ))) == PAYLOAD
    assert bullet.stats.reads.value == reads


def test_dead_read_only_capability_is_refused_like_the_server_does(rpc_rig):
    """End to end, over the network: a workstation caches an object
    under a read-only capability, another deletes it and re-creates the
    same object number with identical bytes, and the workstation caches
    the successor under its read-only capability. The server refuses
    the dead capability; so must the workstation's cache."""
    bullet, client = rpc_rig
    env = client.env
    caching = CachingBulletClient(client, WorkstationCache(64 * KB))
    old = run_process(env, client.create(b"same bytes", 1))
    old_reader = run_process(env, client.restrict(old, RIGHT_READ))
    run_process(env, caching.read(old_reader))
    run_process(env, client.delete(old))
    new = run_process(env, client.create(b"same bytes", 1))
    assert new.object == old.object
    run_process(env, caching.read(run_process(env,
                                              client.restrict(new, RIGHT_READ))))
    with pytest.raises(CapabilityError):
        run_process(env, client.read(old_reader))
    with pytest.raises(CapabilityError):
        run_process(env, caching.read(old_reader))
