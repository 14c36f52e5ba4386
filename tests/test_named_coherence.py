"""The §5 coherence plane: currency evidence, the fixed
``lookup_validated``, open-by-name sessions, and the currency policies.

The two regression anchors (PR 10's bugfixes):

* a copy cached under a *restricted* capability must compare **current**
  against the directory's owner capability — identity is object plus
  secret lineage, never raw rights bits;
* a copy based on a *non-primary* member of a replicated capability set
  must compare **current** — the check runs against the whole set.

Plus the direction the evidence must never soften: delete+recreate that
reuses an object number is a new incarnation and must compare stale.
"""

import pytest

from repro.capability import (
    ALL_RIGHTS,
    Capability,
    RIGHT_DELETE,
    RIGHT_READ,
    restrict,
)
from repro.client import (
    CachingBulletClient,
    CurrencyPolicy,
    LocalBulletStub,
    NamedFileClient,
    WorkstationCache,
)
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.errors import BadRequestError, NotFoundError
from repro.sim import run_process
from repro.units import KB

from conftest import SMALL_DISK, make_bullet, small_testbed


def make_dir_server(env, bullet=None, name="directory"):
    bullet = bullet or make_bullet(env)
    disk = VirtualDisk(env, SMALL_DISK, name=f"{name}-disk")
    server = DirectoryServer(env, disk, LocalBulletStub(bullet),
                             small_testbed(), name=name,
                             max_directories=32)
    server.format()
    env.run(until=env.process(server.boot()))
    return server, bullet


def call(env, gen):
    return run_process(env, gen)


def advance(env, dt):
    def _sleep():
        yield env.timeout(dt)
    run_process(env, _sleep())


def make_session(env, bullet, dirs, root, policy, name,
                 capacity=256 * KB):
    cache = WorkstationCache(capacity, name=name)
    client = CachingBulletClient(LocalBulletStub(bullet), cache=cache)
    return NamedFileClient(client, dirs, root, policy=policy, name=name)


# ------------------------------------------------- currency evidence unit

SECRET = 0x5EC12E7
OWNER = Capability(port=7, object=42, rights=ALL_RIGHTS, check=SECRET)
READ_CAP = restrict(OWNER, RIGHT_READ)
DEL_CAP = restrict(OWNER, RIGHT_DELETE)


def evidence_cache(cpu=None):
    return WorkstationCache(64 * KB, name="evidence", cpu=cpu)


def test_evidence_object_mismatch_is_free_stale():
    cache = evidence_cache()
    other = Capability(port=7, object=43, rights=ALL_RIGHTS, check=SECRET)
    assert cache.currency_evidence(OWNER, other) == (False, 0.0)


def test_evidence_exact_equality_is_free_current():
    cache = evidence_cache()
    assert cache.currency_evidence(READ_CAP, READ_CAP) == (True, 0.0)
    assert cache.currency_evidence(OWNER, OWNER) == (True, 0.0)


def test_evidence_owner_vs_restricted_without_entry():
    """An owner-shaped side carries the secret in its check field, so
    lineage is provable with one derivation even when nothing is
    cached — in either argument order."""
    cpu = small_testbed().cpu
    cache = evidence_cache(cpu=cpu)
    proven, cost = cache.currency_evidence(READ_CAP, OWNER)
    assert proven
    assert cost == pytest.approx(cpu.capability_check)
    proven, cost = cache.currency_evidence(OWNER, READ_CAP)
    assert proven
    assert cost == pytest.approx(cpu.capability_check)


def test_evidence_two_unequal_owners_are_distinct_incarnations():
    cache = evidence_cache()
    reborn = Capability(port=7, object=42, rights=ALL_RIGHTS,
                        check=SECRET ^ 0xDEAD)
    assert cache.currency_evidence(OWNER, reborn) == (False, 0.0)


def test_evidence_reincarnated_owner_vs_old_restriction_is_stale():
    cache = evidence_cache()
    reborn = Capability(port=7, object=42, rights=ALL_RIGHTS,
                        check=SECRET ^ 0xDEAD)
    proven, _cost = cache.currency_evidence(READ_CAP, reborn)
    assert not proven


def test_evidence_both_restricted_needs_entry_secret():
    """Two restricted capabilities can only be linked through the
    resident entry's evidence; derivations memoize into the verified
    set so the second check is free."""
    cpu = small_testbed().cpu
    cache = evidence_cache(cpu=cpu)
    assert cache.currency_evidence(READ_CAP, DEL_CAP) == (False, 0.0)
    assert cache.admit(OWNER, b"payload")
    proven, cost = cache.currency_evidence(READ_CAP, DEL_CAP)
    assert proven
    assert cost == pytest.approx(2 * cpu.capability_check)
    assert cache.currency_evidence(READ_CAP, DEL_CAP) == (True, 0.0)


def test_evidence_owner_check_seeds_trusted_entry():
    """Proving the owner of an entry that already trusts ``based_on``
    seeds the entry's secret, so the cache can vouch for the owner
    afterwards (client-side restriction becomes local)."""
    cache = evidence_cache()
    assert cache.admit(READ_CAP, b"payload")
    assert not cache.owner_verified(OWNER)
    proven, _cost = cache.currency_evidence(READ_CAP, OWNER)
    assert proven
    assert cache.owner_verified(OWNER)


# ------------------------------------------- lookup_validated regressions


def test_restricted_copy_current_against_owner_binding(env):
    """Regression (fix 1): the directory publishes the owner capability
    while the workstation cached the file under a read-only restriction.
    Raw equality called this stale — a spurious re-fetch on every
    check; evidence-based currency proves the restriction's lineage."""
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    owner = call(env, bullet.create(b"the published version", 1))
    call(env, dirs.append(root, "doc", owner))
    client = CachingBulletClient(LocalBulletStub(bullet),
                                 cache=WorkstationCache(64 * KB))
    read_only = restrict(owner, RIGHT_READ)
    call(env, client.read(read_only))
    current, cap = call(env, client.lookup_validated(dirs, root, "doc",
                                                     read_only))
    assert current
    assert cap == owner


def test_nonprimary_member_is_current(env):
    """Regression (fix 2): a replicated binding holds one capability
    per replica; a copy based on a non-primary member is current. The
    old check compared only against ``caps[0]``."""
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    primary = call(env, bullet.create(b"replica bytes", 1))
    secondary = call(env, bullet.create(b"replica bytes", 1))
    call(env, dirs.append(root, "doc", [primary, secondary]))
    client = CachingBulletClient(LocalBulletStub(bullet),
                                 cache=WorkstationCache(64 * KB))
    current, cap = call(env, client.lookup_validated(dirs, root, "doc",
                                                     secondary))
    assert current
    assert cap == secondary
    # ...and a restriction of the non-primary member, combining both
    # fixes: set membership by evidence, not equality against caps[0].
    current, cap = call(env, client.lookup_validated(
        dirs, root, "doc", restrict(secondary, RIGHT_READ)))
    assert current
    assert cap == secondary


def test_reincarnation_is_stale(env):
    """Delete + recreate reuses the object number but mints a new
    secret: the §5 check MUST call the old copy stale even though
    ``(port, object)`` — and here even the bytes — are identical."""
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    v1 = call(env, bullet.create(b"same bytes", 1))
    call(env, dirs.append(root, "doc", v1))
    client = CachingBulletClient(LocalBulletStub(bullet),
                                 cache=WorkstationCache(64 * KB))
    call(env, client.read(v1))
    call(env, bullet.delete(v1))
    v2 = call(env, bullet.create(b"same bytes", 1))
    assert (v2.port, v2.object) == (v1.port, v1.object)  # slot reused
    assert v2.check != v1.check
    call(env, dirs.replace(root, "doc", v2))
    current, cap = call(env, client.lookup_validated(dirs, root, "doc", v1))
    assert not current
    assert cap == v2
    # The restricted shape of the same staleness.
    current, _cap = call(env, client.lookup_validated(
        dirs, root, "doc", restrict(v1, RIGHT_READ)))
    assert not current


# ----------------------------------------------------- open-by-name plane


def test_check_always_never_serves_stale(env):
    """The acceptance property: under check-always, a read issued
    after a directory REPLACE commits never returns the old version —
    even when the superseded file is deleted out from under a cached
    capability (recovery is name-mediated)."""
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    writer = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.session(), "writer")
    reader = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.always(), "reader")
    owner, _old = call(env, writer.publish("doc", b"doc v0"))
    assert call(env, reader.read("doc")) == b"doc v0"
    for version in range(1, 5):
        data = f"doc v{version}".encode()
        mask = RIGHT_READ if version % 2 else None
        new_owner, _old = call(env, writer.publish("doc", data, mask=mask))
        call(env, writer.client.delete(owner))  # dispose old version
        owner = new_owner
        assert call(env, reader.read("doc")) == data
    assert reader.stats.stale == 4
    assert reader.stats.revalidations == 4


def test_session_policy_serves_cached_version_without_traffic(env):
    """The other end of the trade-off: a session binding never
    re-checks, so it serves the bound version from the cache with zero
    further directory RPCs — and therefore serves stale data."""
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    writer = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.session(), "writer")
    reader = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.session(), "reader")
    call(env, writer.publish("doc", b"doc v0"))
    assert call(env, reader.read("doc")) == b"doc v0"
    rpcs_after_bind = reader.stats.dir_rpcs
    call(env, writer.publish("doc", b"doc v1"))
    assert call(env, reader.read("doc")) == b"doc v0"   # stale, by design
    assert reader.stats.dir_rpcs == rpcs_after_bind     # and free
    assert reader.stats.checks == 0


def test_after_policy_checks_once_interval_elapses(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    writer = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.session(), "writer")
    reader = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.after(10.0), "reader")
    call(env, writer.publish("doc", b"doc v0"))
    assert call(env, reader.read("doc")) == b"doc v0"
    call(env, writer.publish("doc", b"doc v1"))
    assert call(env, reader.read("doc")) == b"doc v0"   # within T: no check
    assert reader.stats.checks == 0
    advance(env, 10.0)
    assert call(env, reader.read("doc")) == b"doc v1"   # T elapsed: check
    assert reader.stats.checks == 1
    assert reader.stats.stale == 1


def test_vanished_file_forces_recovery_under_session_policy(env):
    """Even a never-rechecking session recovers when the file its
    binding names is disposed of: the failed fetch forces a currency
    check and the read lands on the current version."""
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    writer = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.session(), "writer")
    # A 16-byte cache cannot hold the file: every read goes to the
    # server, so the disposal is actually observed.
    reader = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.session(), "reader", capacity=16)
    v1, _old = call(env, writer.publish("doc", b"doc v0 " + b"x" * 64))
    assert call(env, reader.read("doc")).startswith(b"doc v0")
    call(env, writer.publish("doc", b"doc v1 " + b"x" * 64))
    call(env, writer.client.delete(v1))
    assert call(env, reader.read("doc")).startswith(b"doc v1")
    assert reader.stats.stale == 1
    assert reader.stats.revalidations == 1


def test_vanished_file_recovers_on_size_under_an_open_handle(env):
    """SIZE under an open handle takes the same name-mediated recovery
    as READ when the version the handle names is disposed of."""
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    writer = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.session(), "writer")
    reader = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.session(), "reader", capacity=16)
    v1, _old = call(env, writer.publish("doc", b"v0"))
    handle = call(env, reader.open("doc"))
    call(env, writer.publish("doc", b"version one"))
    call(env, writer.client.delete(v1))
    assert call(env, handle.size()) == len(b"version one")
    assert reader.stats.revalidations == 1


def test_coherence_counters_scripted(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    writer = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.session(), "writer")
    reader = make_session(env, bullet, dirs, root,
                          CurrencyPolicy.always(), "reader")
    call(env, writer.publish("doc", b"doc v0"))
    call(env, reader.read("doc"))                   # bind
    call(env, reader.read("doc"))                   # check: current
    call(env, writer.publish("doc", b"doc v1"))
    call(env, reader.read("doc"))                   # check: stale, refetch
    assert reader.stats.opens == 3
    assert reader.stats.binds == 1
    assert reader.stats.checks == 2
    assert reader.stats.stale == 1
    assert reader.stats.revalidations == 1
    # One RPC per bind or check: the directory is the only coherence
    # traffic, and the file server saw none of it.
    assert reader.stats.dir_rpcs == 3


def test_open_handle_and_forget(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    session = make_session(env, bullet, dirs, root,
                           CurrencyPolicy.always(), "ws")
    call(env, session.publish("doc", b"handle bytes"))
    handle = call(env, session.open("doc"))
    assert handle.name == "doc"
    assert call(env, handle.read()) == b"handle bytes"
    assert call(env, handle.size()) == len(b"handle bytes")
    session.forget("doc")
    binds = session.stats.binds
    call(env, session.read("doc"))
    assert session.stats.binds == binds + 1


def test_missing_name_raises(env):
    dirs, bullet = make_dir_server(env)
    root = call(env, dirs.create_directory())
    session = make_session(env, bullet, dirs, root,
                           CurrencyPolicy.always(), "ws")
    with pytest.raises(NotFoundError):
        call(env, session.read("nope"))


# ------------------------------------------------------ policy validation


def test_policy_due_predicates():
    assert CurrencyPolicy.always().due(0.0, 0.0)
    assert not CurrencyPolicy.session().due(1e9, 0.0)
    after = CurrencyPolicy.after(5.0)
    assert not after.due(10.0, 6.0)
    assert after.due(11.0, 6.0)


def test_policy_validation():
    with pytest.raises(BadRequestError):
        CurrencyPolicy.after(0.0)
    with pytest.raises(BadRequestError):
        CurrencyPolicy("sometimes")
