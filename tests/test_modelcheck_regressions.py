"""Seed counterexample regressions for the model checker.

Each committed trace under ``tests/modelcheck_traces/`` is a minimized
counterexample the explorer found against a deliberately weakened scope
(or a fault injection). Replaying it must still demonstrate the same
invariant-family violation: if one of these stops failing, either the
invariant checker went blind or the rig semantics drifted — both worth
noticing immediately.

The final test is the opposite kind of regression: the exact schedule
with which the checker caught a *real* product bug (an Ethernet-medium
grant leaked by a worker crashed mid-transmission, deadlocking every
later sender) must now run to quiescence cleanly.
"""

import os

import pytest

from repro.modelcheck import (
    CheckRig,
    InvariantViolation,
    Scope,
    assert_trace_still_fails,
    load_trace,
    replay_trace,
)

TRACE_DIR = os.path.join(os.path.dirname(__file__), "modelcheck_traces")


def trace_path(name):
    return os.path.join(TRACE_DIR, name)


# ------------------------------------------------- committed counterexamples


def test_durability_trace_still_fails():
    """AllFilesOnline with a spec/implementation mismatch: the scope
    claims tolerance 2 but the server only writes P-FACTOR 1, so a
    crash-cooled cache plus an overlapping MODIFY lets a confirmed file
    exist on a single replica — losing that replica kills it."""
    violation = assert_trace_still_fails(
        trace_path("durability_p1_tolerance2.json"))
    assert violation.family == "durability"
    assert "no live replica" in violation.message


def test_locks_trace_still_fails():
    """A lock grant acquired and never released must be caught by the
    leaked-grant check at quiescence."""
    violation = assert_trace_still_fails(
        trace_path("locks_leaked_grant.json"))
    assert violation.family == "locks"
    assert "leaked" in violation.message


def test_linearizability_trace_still_fails():
    """A flipped byte in a cached rnode (disks intact) must be caught
    by readback against the oracle."""
    violation = assert_trace_still_fails(
        trace_path("linearizability_cache_corrupt.json"))
    assert violation.family == "linearizability"
    assert "readback" in violation.message


def test_traces_record_shrunk_minimal_schedules():
    """Every committed trace went through the shrinker and says so."""
    for name in sorted(os.listdir(TRACE_DIR)):
        data = load_trace(trace_path(name))
        assert data["format"] == "repro.modelcheck/1"
        assert data["shrunk_from"] is not None
        assert len(data["trace"]) <= data["shrunk_from"]
        # And the recorded violation is what replay reproduces.
        violation = replay_trace(data)
        assert violation is not None
        assert violation.family == data["violation"]["family"]


# ----------------------------------------- the bug the checker actually found


# The schedule (found by DFS over Scope(p_factor=2, replica_losses=1,
# crashes=1, overlap=True)) that deadlocked before the fix: the server
# crash at step 12 killed a worker holding the Ethernet medium grant for
# c1's in-flight reply, so c0's outstanding request could never be
# transmitted and its wait hung forever.
ETHERNET_LEAK_SCHEDULE = [
    "c0.go", "c0.wait", "c0.go", "c0.wait", "c1.go", "c1.wait",
    "c0.go", "c1.go", "lose:md0", "c1.wait", "c1.go", "crash", "c0.wait",
]


# The schedule (found by a seeded random walk over the full fault
# scope) that lost a confirmed file before the recovery-race fix: a
# CREATE issued while md0 was dead raced an online recovery of md0 —
# the streaming copy's stale snapshot clobbered the CREATE's forwarded
# inode-table write on the rebuilt disk, and the post-crash boot read
# the stale table from the new primary.
RECOVERY_RACE_SCHEDULE = [
    "lose:md0", "c0.go", "repair:md0", "crash", "restart",
]


def test_recovery_copy_does_not_clobber_concurrent_writes():
    """Regression for the online-recovery race: mirrored writes issued
    while a recovery copy is streaming must survive on the rebuilt
    replica (the mirror's resync log + the re-copy rounds)."""
    scope = Scope(p_factor=2, replica_losses=1, crashes=1, repairs=1,
                  overlap=True)
    rig = CheckRig(scope)
    try:
        for label in RECOVERY_RACE_SCHEDULE:
            assert label in rig.enabled(), f"{label} not enabled: stale schedule"
            try:
                rig.apply(label)
            except InvariantViolation as violation:
                pytest.fail(f"schedule violated {violation.family} again: "
                            f"{violation.message}")
        rig.finalize()
    finally:
        rig.teardown()


def test_crash_mid_transmission_does_not_leak_the_medium():
    """Regression for the Ethernet-medium grant leak: a server crash
    interrupting a worker mid-reply-transmission must release (or
    withdraw) the medium claim so other senders make progress. Replay
    the exact catching schedule and require a clean run to quiescence —
    each label must be enabled when its turn comes (no vacuous pass)."""
    scope = Scope(p_factor=2, replica_losses=1, crashes=1, overlap=True)
    rig = CheckRig(scope)
    try:
        for label in ETHERNET_LEAK_SCHEDULE:
            assert label in rig.enabled(), f"{label} not enabled: stale schedule"
            try:
                rig.apply(label)
            except InvariantViolation as violation:
                pytest.fail(f"schedule violated {violation.family} again: "
                            f"{violation.message}")
        rig.finalize()
    finally:
        rig.teardown()
