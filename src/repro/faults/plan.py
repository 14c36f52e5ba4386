"""Declarative fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultEvent` records, each
naming a *kind* (what goes wrong), a *target* (which attached component
it happens to), an absolute simulated *time*, and kind-specific
parameters. Plans are pure data: they carry no environment or component
references, so the same plan can be executed against two independently
seeded worlds to check determinism, or stored alongside an experiment's
results as its failure script.

Windowed kinds (``net.loss``, ``net.latency``, ``net.partition``,
``disk.degrade``, ``disk.flaky``) revert automatically when their
``duration`` is over; the rest are one-shot. Network faults hit the
segment attached as ``"net"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BadRequestError

__all__ = ["FaultEvent", "FaultPlan", "FAULT_KINDS"]


#: kind -> (target role, required params). The controller refuses a plan
#: whose events name unknown kinds, miss required params, or target a
#: component attached under a different role.
FAULT_KINDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "disk.fail": ("disk", ()),
    "disk.fail_after_writes": ("disk", ("writes",)),
    "disk.degrade": ("disk", ("factor", "duration")),
    "disk.flaky": ("disk", ("start_block", "nblocks", "duration")),
    "disk.repair": ("disk", ()),
    "net.partition": ("net", ("duration",)),
    "net.loss": ("net", ("duration", "probability")),
    "net.latency": ("net", ("duration", "extra")),
    "server.crash": ("server", ()),
    "server.restart": ("server", ()),
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` happens to ``target`` at time ``at``."""

    at: float
    kind: str
    target: str
    params: tuple = ()  # sorted (name, value) pairs; see FaultPlan.add

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default

    def describe(self) -> str:
        extra = " ".join(f"{k}={v!r}" for k, v in self.params)
        return f"t={self.at!r} {self.kind} -> {self.target} {extra}".rstrip()


class FaultPlan:
    """An ordered, validated schedule of fault events.

    Builder methods return ``self`` so plans read as one chained
    declaration::

        plan = (FaultPlan()
                .disk_fail("d0", at=0.5)
                .net_loss(at=1.0, duration=2.0, probability=0.3)
                .server_crash("bullet", at=4.0)
                .server_restart("bullet", at=5.0))
    """

    def __init__(self):
        self.events: list[FaultEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------ builder

    def add(self, kind: str, target: str, at: float, **params) -> "FaultPlan":
        """Append one event (generic entry point; the named builders
        below are thin wrappers over this)."""
        event = FaultEvent(at=float(at), kind=kind, target=target,
                           params=tuple(sorted(params.items())))
        self._check_event(event)
        self.events.append(event)
        return self

    def disk_fail(self, target: str, at: float,
                  reason: str = "planned fault") -> "FaultPlan":
        """Kill a disk outright at ``at``."""
        return self.add("disk.fail", target, at, reason=reason)

    def disk_fail_after_writes(self, target: str, writes: int) -> "FaultPlan":
        """Arm at once: kill the disk the moment its ``writes``-th
        subsequent write completes (event-driven, exact)."""
        return self.add("disk.fail_after_writes", target, 0.0, writes=writes)

    def disk_degrade(self, target: str, at: float, factor: float,
                     duration: float) -> "FaultPlan":
        """Multiply the disk's access times by ``factor`` (a dying drive
        retrying internally) for ``duration`` seconds."""
        return self.add("disk.degrade", target, at, factor=factor,
                        duration=duration)

    def disk_flaky(self, target: str, at: float, start_block: int,
                   nblocks: int, duration: float) -> "FaultPlan":
        """Make a block extent return media errors for ``duration``
        seconds."""
        return self.add("disk.flaky", target, at, start_block=start_block,
                        nblocks=nblocks, duration=duration)

    def disk_repair(self, target: str, at: float) -> "FaultPlan":
        """Bring a failed disk back (blank-state repair; a recovery copy
        is the caller's business, as with :meth:`VirtualDisk.repair`)."""
        return self.add("disk.repair", target, at)

    def net_partition(self, at: float, duration: float) -> "FaultPlan":
        """Drop every fragment on the segment for ``duration`` seconds."""
        return self.add("net.partition", "net", at, duration=duration)

    def net_loss(self, at: float, duration: float,
                 probability: float) -> "FaultPlan":
        """A window of seeded random fragment loss at ``probability``."""
        return self.add("net.loss", "net", at, duration=duration,
                        probability=probability)

    def net_latency(self, at: float, duration: float,
                    extra: float) -> "FaultPlan":
        """Charge every fragment ``extra`` seconds of added latency."""
        return self.add("net.latency", "net", at, duration=duration,
                        extra=extra)

    def server_crash(self, target: str, at: float) -> "FaultPlan":
        """Crash a server mid-whatever: the service loop is interrupted,
        volatile state (RAM cache, verified-capability cache, reply
        cache) is lost; durable state stays on the disks."""
        return self.add("server.crash", target, at)

    def server_restart(self, target: str, at: float) -> "FaultPlan":
        """Re-boot a crashed server: re-read the inode table, re-run the
        startup consistency scan, start serving again."""
        return self.add("server.restart", target, at)

    # --------------------------------------------------------- validation

    def validate(self) -> None:
        """Re-check every event (events are also checked on add; this
        guards plans built by deserialization or direct list edits)."""
        for event in self.events:
            self._check_event(event)

    @staticmethod
    def _check_event(event: FaultEvent) -> None:
        spec = FAULT_KINDS.get(event.kind)
        if spec is None:
            known = ", ".join(sorted(FAULT_KINDS))
            raise BadRequestError(
                f"unknown fault kind {event.kind!r} (known: {known})"
            )
        _role, required = spec
        if event.at < 0:
            raise BadRequestError(f"fault time {event.at} is negative")
        if not event.target:
            raise BadRequestError(f"{event.kind} event has no target")
        given = {name for name, _value in event.params}
        missing = sorted(set(required) - given)
        if missing:
            raise BadRequestError(
                f"{event.kind} event is missing params: {', '.join(missing)}"
            )
        writes = event.param("writes")
        if writes is not None and writes < 1:
            raise BadRequestError(f"writes must be >= 1, got {writes}")
        factor = event.param("factor")
        if factor is not None and factor < 1.0:
            raise BadRequestError(
                f"degrade factor must be >= 1.0, got {factor}"
            )
        probability = event.param("probability")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise BadRequestError(
                f"loss probability must be in [0, 1], got {probability}"
            )
        duration = event.param("duration")
        if duration is not None and duration <= 0:
            raise BadRequestError(f"duration must be > 0, got {duration}")
        extra = event.param("extra")
        if extra is not None and extra < 0:
            raise BadRequestError(f"extra latency must be >= 0, got {extra}")
        nblocks = event.param("nblocks")
        if nblocks is not None and nblocks < 1:
            raise BadRequestError(f"nblocks must be >= 1, got {nblocks}")

    def describe(self) -> str:
        """Human-readable schedule, one event per line, in plan order."""
        return "\n".join(e.describe() for e in self.events)
