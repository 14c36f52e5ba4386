"""Tests for the model checker itself: the oracles, the kernel tie
hook, the explorer's determinism, and the shrinker's minimality
guarantee. The checker is only trustworthy if these hold — a
nondeterministic explorer or an unsound shrinker silently weakens every
result it reports.
"""

import pytest

from repro.capability import Capability
from repro.core.locks import FileLockTable
from repro.core.lockset import active_checker
from repro.disk import MirroredDiskSet, VirtualDisk
from repro.errors import ConsistencyError
from repro.modelcheck import (
    CheckRig,
    Explorer,
    RefDirectory,
    RefModel,
    Scope,
    check_scope,
)
from repro.sim import Environment

from conftest import SMALL_DISK, reference_env

# The acceptance scope from the issue: 2 clients x 3 ops x 1 crash
# point, exhaustible in under a second.
ACCEPTANCE = Scope(clients=2, ops_per_client=3, crashes=1)

# A deliberately broken configuration: the server writes P-FACTOR 1
# while the durability invariant demands tolerance 2. Needs a crash
# (cold cache => disk-queue asymmetry) plus overlapping ops plus a
# replica loss for the violation to be reachable.
BROKEN = Scope(p_factor=1, tolerance=2, replica_losses=1, crashes=1,
               overlap=True)


def cap(obj, check=7):
    return Capability(port=1, object=obj, rights=0xFF, check=check)


# ------------------------------------------------------------------ RefModel


class TestRefModel:
    def test_create_read_delete_lifecycle(self):
        model = RefModel()
        model.create(cap(1), b"one")
        model.create(cap(2), b"two", confirmed=False)
        assert len(model) == 2
        assert model.data(cap(1)) == b"one"
        assert model.confirmed_files() == [(cap(1), b"one")]
        model.delete(cap(1))
        assert cap(1) not in model
        assert model.absence_plausible(cap(1))
        assert not model.absence_plausible(cap(2))

    def test_live_capability_reuse_is_an_error(self):
        model = RefModel()
        model.create(cap(1), b"x")
        with pytest.raises(ConsistencyError):
            model.create(cap(1), b"y")

    def test_a_reissued_gone_capability_is_refused(self):
        # Each incarnation mints its own secrets: a deleted (object,
        # check) pair coming back is a re-minted secret.
        model = RefModel()
        model.create(cap(1), b"x")
        model.delete(cap(1))
        with pytest.raises(ConsistencyError, match="reissued"):
            model.create(cap(1), b"y")
        assert cap(1) not in model and model.absence_plausible(cap(1))

    def test_crash_makes_unconfirmed_files_uncertain(self):
        model = RefModel()
        model.create(cap(1), b"durable")
        model.create(cap(2), b"volatile", confirmed=False)
        model.crash()
        assert not model.is_uncertain(cap(1))
        assert model.is_uncertain(cap(2))
        # Content is never uncertain: the bytes are retained.
        assert model.data(cap(2)) == b"volatile"
        # A successful READ resolves presence.
        model.resolve_present(cap(2))
        assert not model.has_uncertain()

    def test_resolve_absent_requires_uncertainty(self):
        model = RefModel()
        model.create(cap(1), b"x")
        model.mark_uncertain(cap(1))
        model.resolve_absent(cap(1))
        assert cap(1) not in model
        with pytest.raises(ConsistencyError):
            model.resolve_absent(cap(1))

    def test_pick_is_deterministic_object_order(self):
        model = RefModel()
        for obj in (5, 3, 9):
            model.create(cap(obj), b"")
        assert [c.object for c in model.caps()] == [3, 5, 9]
        assert model.pick(0).object == 3
        assert model.pick(4).object == 5
        assert RefModel().pick(0) is None

    def test_clamp_and_splice_match_the_server_arithmetic(self):
        offset, delete_bytes = RefModel.clamp_modify(10, 27, 99)
        assert offset == 27 % 11 == 5
        assert delete_bytes == 5
        assert RefModel.spliced(b"0123456789", 5, 5, b"AB") == b"01234AB"

    def test_digest_tracks_state(self):
        a, b = RefModel(), RefModel()
        assert a.digest() == b.digest()
        a.create(cap(1), b"x")
        assert a.digest() != b.digest()
        b.create(cap(1), b"x")
        assert a.digest() == b.digest()


class TestRefDirectory:
    def test_append_replace_remove(self):
        d = RefDirectory()
        assert d.append("a", cap(1))
        assert not d.append("a", cap(2))
        assert d.lookup("a") == cap(1)
        assert d.replace("a", cap(2)) == cap(1)
        assert d.replace("missing", cap(3)) is None
        assert d.names() == ["a"]
        assert d.remove("a") == cap(2)
        assert d.remove("a") is None
        assert len(d) == 0


# ------------------------------------------------------------ kernel tie hook


class TestTieHook:
    @staticmethod
    def _race(env, order):
        """Two events scheduled for the same instant and priority."""
        for name in ("first", "second"):
            ev = env.timeout(1.0)
            ev.callbacks.append(lambda _ev, n=name: order.append(n))

    def test_no_hook_and_index_zero_match_reference_order(self):
        reference = []
        env = Environment()
        self._race(env, reference)
        env.run(None)
        assert reference == ["first", "second"]

        hooked = []
        env = reference_env()
        self._race(env, hooked)
        env.run(None)
        assert hooked == reference

    def test_nonzero_choice_permutes_the_tie(self):
        order = []
        env = Environment()
        env.set_tie_hook(lambda tied: len(tied) - 1)
        self._race(env, order)
        env.run(None)
        assert order == ["second", "first"]

    def test_hook_sees_tied_entries_in_eid_order(self):
        counts = []
        env = Environment()

        def hook(tied):
            counts.append(len(tied))
            eids = [entry[2] for entry in tied]
            assert eids == sorted(eids)
            return 0

        env.set_tie_hook(hook)
        self._race(env, [])
        env.run(None)
        assert 2 in counts

    def test_out_of_range_choice_is_an_error(self):
        env = Environment()
        env.set_tie_hook(lambda tied: len(tied))
        self._race(env, [])
        with pytest.raises(ConsistencyError):
            env.run(None)

    def test_clearing_the_hook_restores_the_fast_path(self):
        env = reference_env()
        env.set_tie_hook(None)
        order = []
        self._race(env, order)
        env.run(None)
        assert order == ["first", "second"]

    def test_installing_a_hook_is_what_selects_the_reference_kernel(self):
        # Regression: the hook used to be independent of the fast
        # paths, so on a default Environment() they collapsed the very
        # same-instant interleavings the hook exists to permute — a
        # two-replica mirrored write showed it one tie point ([2], five
        # events) where the reference kernel has four. The explorer
        # would have "checked every schedule" of a fraction of them.
        env = Environment()
        seen = []

        def record(tied):
            seen.append(len(tied))
            return 0

        env.set_tie_hook(record)
        mirror = MirroredDiskSet(env, [
            VirtualDisk(env, SMALL_DISK, name=f"md{i}") for i in range(2)])
        env.run()  # both arms parked: what follows is the write alone

        def mirrored_write():
            before = env.events_scheduled
            del seen[:]
            env.run(until=mirror.write(8, b"x" * 4096))
            env.run()
            return list(seen), env.events_scheduled - before

        # Wakeup, access-time timeout and completion of each replica,
        # plus the AllOf: every hop a heap entry, every pairing a tie.
        assert mirrored_write() == ([2, 2, 2, 2], 7)
        # Back to the fast kernel: the one arm path pushes the same
        # seven entries, and nobody is shown the ties.
        env.set_tie_hook(None)
        assert mirrored_write() == ([], 7)
        env.set_tie_hook(record)
        assert mirrored_write() == ([2, 2, 2, 2], 7)


# ------------------------------------------------------- lock-table checking


class TestLockTableInvariants:
    def test_clean_table_passes(self, env):
        table = FileLockTable(env)
        table.check_invariants()


# ------------------------------------------------------- explorer determinism


class TestExplorer:
    def test_acceptance_scope_exhausts_deterministically(self):
        """The issue's acceptance scope: 2 clients x 3 ops x 1 crash
        point must exhaust with the same explored-state count and
        fingerprint on two same-seed runs."""
        first = Explorer(ACCEPTANCE, seed=0).dfs()
        second = Explorer(ACCEPTANCE, seed=0).dfs()
        assert first.violation is None
        assert first.states == second.states
        assert first.transitions == second.transitions
        assert first.leaves == second.leaves
        assert first.fingerprint == second.fingerprint
        assert first.states > 100  # genuinely explored, not degenerate

    def test_walk_visits_subset_of_dfs_on_exhaustible_scope(self):
        """Random walks over an exhaustible scope can only reach states
        the DFS also reached: walk-visited ⊆ dfs-visited, and both modes
        agree the scope is violation-free."""
        dfs = Explorer(ACCEPTANCE, seed=0)
        dfs_stats = dfs.dfs()
        walker = Explorer(ACCEPTANCE, seed=17)
        walk_stats = walker.walk(walks=12, steps=24)
        assert dfs_stats.violation is None
        assert walk_stats.violation is None
        assert walker.visited <= dfs.visited

    def test_walk_is_seed_deterministic(self):
        a = Explorer(ACCEPTANCE, seed=23).walk(walks=6, steps=20)
        b = Explorer(ACCEPTANCE, seed=23).walk(walks=6, steps=20)
        assert a.fingerprint == b.fingerprint
        assert a.transitions == b.transitions

    def test_broken_scope_yields_minimal_counterexample(self):
        """Dropping the replication factor below the claimed tolerance
        must produce a violation, and the shrunk trace must be
        1-minimal: it still fails, and removing any single transition
        makes it pass."""
        armed_before = active_checker()
        explorer = Explorer(BROKEN, seed=0)
        stats = explorer.dfs()
        assert stats.violation is not None
        assert stats.violation["family"] == "durability"
        counterexample = explorer.counterexample
        records = counterexample.records
        assert counterexample.shrunk_from >= len(records)
        assert explorer.replay_fails(records) is not None
        for index in range(len(records)):
            shorter = records[:index] + records[index + 1:]
            assert explorer.replay_fails(shorter) is None, (
                f"dropping transition {index} ({records[index].label}) "
                f"still fails: trace is not 1-minimal")
        # A replay arms its rig's lockset checker; it must not stay armed
        # for whatever test runs next.
        assert active_checker() is armed_before

    def test_scope_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            check_scope(Scope(clients=0))
        with pytest.raises(ValueError):
            check_scope(Scope(p_factor=3, n_disks=2))
        with pytest.raises(ValueError):
            check_scope(Scope(inject="bogus"))

    def test_injected_leak_is_caught_and_shrinks_to_one_step(self):
        scope = Scope(clients=1, ops_per_client=2, crashes=0, inject="leak")
        explorer = Explorer(scope, seed=0)
        stats = explorer.dfs()
        assert stats.violation is not None
        assert stats.violation["family"] == "locks"
        assert explorer.counterexample.labels() == ["inject:leak"]


# ------------------------------------------------------------- rig semantics


class TestCheckRig:
    def test_enabled_labels_are_canonical_and_budgeted(self):
        rig = CheckRig(ACCEPTANCE)
        try:
            labels = rig.enabled()
            assert labels[0] == "c0"
            assert "crash" in labels
            assert "restart" not in labels  # server is up
            rig.apply("crash")
            assert "crash" not in rig.enabled()  # budget of 1 used
            assert "restart" in rig.enabled()
        finally:
            rig.teardown()

    def test_state_key_stable_under_replay(self):
        trace = ["c0", "c1", "crash", "restart", "c0"]
        keys = []
        for _run in range(2):
            rig = CheckRig(ACCEPTANCE)
            try:
                for label in trace:
                    rig.apply(label)
                keys.append(rig.state_key())
            finally:
                rig.teardown()
        assert keys[0] == keys[1]


# ------------------------------------------------------------ deep exploration


@pytest.mark.explore
@pytest.mark.slow
def test_correct_config_survives_full_fault_scope():
    """The big one: overlapping ops x crash/restart x replica loss over
    a correctly configured server (P-FACTOR 2, tolerance 2) exhausts
    with no violation. This is the scope that caught the Ethernet
    medium-grant leak; several thousand states, tens of seconds."""
    scope = Scope(p_factor=2, replica_losses=1, crashes=1, overlap=True)
    stats = Explorer(scope, seed=0).dfs()
    assert stats.violation is None
    assert stats.states > 3000
