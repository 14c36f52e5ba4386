"""The invariant families checked at every explored state.

Executable translations of the spec obligations:

* **durability** — snippet 1's TLA+ ``AllFilesOnline`` under
  ``IsCorrect == Cardinality(Servers \\ OnlineServers) < Replicas =>
  AllFilesOnline``: as long as fewer than `tolerance` replicas have
  failed, every file the oracle holds as *confirmed* (its CREATE/MODIFY
  reply promised P-FACTOR ≥ 1 durable copies) must be present,
  byte-correct, on at least one live replica. Checked against the raw
  disks — each live replica's inode table is decoded from block 0 and
  the extent bytes compared — never through the server, so a server
  that lies cannot mask a durability hole.
* **locks** — the lock plane's structural safety
  (:meth:`FileLockTable.check_invariants`: no reader/writer overlap, no
  released grant held, waits-for acyclic), cross-checked at runtime by
  the Eraser-style lockset checker and the deadlock detector
  (their reports are converted to violations by the rig), plus the
  leaked-grant check at quiesced leaves.
* **linearizability** — checked as completed-op outcomes arrive in
  ``rig._apply_outcome`` (the paper's immutable files make this a
  per-op content/presence check, see refmodel.py).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..core.inode import Inode, InodeTable
from ..errors import ConsistencyError, ReproError

if TYPE_CHECKING:  # pragma: no cover
    from .rig import CheckRig

__all__ = ["check_durability", "check_lock_plane"]


def check_durability(rig: "CheckRig") -> None:
    """AllFilesOnline: every confirmed file on ≥ 1 live replica."""
    from .rig import InvariantViolation

    confirmed = rig.oracle.confirmed_files()
    if not confirmed:
        return
    live = [d for d in rig.disks if not d.failed]
    failures = len(rig.disks) - len(live)
    if failures >= rig.scope.tolerance_effective:
        # More failures than the configuration claims to tolerate:
        # the implication's antecedent is false, nothing to check.
        return
    tables: Dict[str, Dict[int, Inode]] = {}
    for disk in live:
        raw = disk.read_raw(0, rig.layout.inode_table_blocks)
        table = InodeTable.decode(raw, disk.block_size)
        tables[disk.name] = dict(table.live_inodes())
    for cap, data in confirmed:
        if _online(rig, live, tables, cap.object, data):
            continue
        raise InvariantViolation(
            "durability",
            f"confirmed file (object {cap.object}, {len(data)} bytes) is on "
            f"no live replica with {failures} failure(s) < tolerance "
            f"{rig.scope.tolerance_effective} "
            f"(live: {[d.name for d in live]})")


def _online(rig: "CheckRig", live: list, tables: Dict[str, Dict[int, Inode]],
            number: int, data: bytes) -> bool:
    for disk in live:
        inode = tables[disk.name].get(number)
        if inode is None or inode.size != len(data):
            continue
        blocks = rig.layout.blocks_for(inode.size)
        stored = (disk.read_raw(inode.start_block, blocks)[:inode.size]
                  if blocks else b"")
        if stored == data:
            return True
    return False


def check_lock_plane(rig: "CheckRig") -> None:
    """Structural lock-table safety on the live server incarnation."""
    from .rig import InvariantViolation

    if not rig.booted:
        return
    try:
        rig.server.locks.check_invariants()
    except (ConsistencyError, ReproError) as exc:
        raise InvariantViolation("locks", str(exc)) from exc
