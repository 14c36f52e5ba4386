"""Executes a :class:`~repro.faults.plan.FaultPlan` against live components.

The controller is the single place where fault schedules meet the
running system. Components are *attached* under the role the plan's
events expect (disk / net / server); :meth:`FaultController.start`
forks one small runner process per event, each of which sleeps until
its planned time, flips the target's injection seam, and (for windowed
kinds) flips it back when the window closes.

Every firing is appended to :attr:`FaultController.firings` and emitted
on the ``fault`` trace category, so the full fault history of a run is
one deterministic artifact: :meth:`firings_text` of two runs with the
same seed and plan is byte-identical (the runtime half of the
analyzer's D001/D002 replay contract).
"""

from __future__ import annotations

from typing import Optional

from ..errors import BadRequestError, ConsistencyError
from ..obs import MetricsRegistry
from ..sim import Environment, SeededStream, Tracer
from .injector import arm_fail_after_writes
from .plan import FAULT_KINDS, FaultEvent, FaultPlan

__all__ = ["FaultController"]


class FaultController:
    """Runs a fault plan against attached disks, networks, and servers."""

    def __init__(self, env: Environment, plan: FaultPlan,
                 master_seed: int = 0, tracer: Optional[Tracer] = None):
        self.env = env
        self.plan = plan
        self.master_seed = master_seed
        self._tracer = tracer
        self.metrics = MetricsRegistry()
        #: (time, kind, target, detail) tuples, in firing order.
        self.firings: list[tuple[float, str, str, str]] = []
        self._targets: dict[str, object] = {}
        self._roles: dict[str, str] = {}
        self._processes: list = []
        self._started = False

    # ---------------------------------------------------------- attaching

    def attach_disk(self, name: str, disk) -> "FaultController":
        """Register a :class:`~repro.disk.VirtualDisk` under ``name``."""
        return self._attach(name, "disk", disk)

    def attach_ethernet(self, name: str, ethernet) -> "FaultController":
        """Register an :class:`~repro.net.Ethernet` segment under
        ``name`` (network faults target ``"net"``)."""
        return self._attach(name, "net", ethernet)

    def attach_server(self, name: str, server) -> "FaultController":
        """Register a server exposing ``crash()`` and ``boot()`` (the
        Bullet and directory servers both do) under ``name``."""
        return self._attach(name, "server", server)

    def _attach(self, name: str, role: str, target) -> "FaultController":
        if self._started:
            raise BadRequestError("cannot attach targets after start()")
        if name in self._targets:
            raise BadRequestError(f"target {name!r} already attached")
        self._targets[name] = target
        self._roles[name] = role
        return self

    # ------------------------------------------------------------ running

    def start(self) -> "FaultController":
        """Validate the plan against the attached targets and fork the
        per-event runner daemons."""
        if self._started:
            raise BadRequestError("fault controller already started")
        self.plan.validate()
        for event in self.plan.events:
            role, _required = FAULT_KINDS[event.kind]
            attached_role = self._roles.get(event.target)
            if attached_role is None:
                raise BadRequestError(
                    f"{event.kind} targets {event.target!r}, which is not "
                    f"attached"
                )
            if attached_role != role:
                raise BadRequestError(
                    f"{event.kind} needs a {role} target but {event.target!r} "
                    f"is attached as a {attached_role}"
                )
            if event.at < self.env.now:
                raise BadRequestError(
                    f"fault time {event.at} is already in the past "
                    f"(now={self.env.now})"
                )
        self._started = True
        for seq, event in enumerate(self.plan.events):
            self._processes.append(self.env.process(self._runner(seq, event)))
        return self

    def firings_text(self) -> str:
        """Canonical one-line-per-firing rendering (the determinism
        artifact: byte-identical across same-seed replays)."""
        return "\n".join(
            f"{when!r} {kind} {target} {detail}".rstrip()
            for when, kind, target, detail in self.firings
        )

    # ----------------------------------------------------------- internals

    def _runner(self, seq: int, event: FaultEvent):
        if event.at > self.env.now:
            yield self.env.timeout(event.at - self.env.now)
        yield from self._fire(seq, event)

    def _fire(self, seq: int, event: FaultEvent):
        target = self._targets[event.target]
        kind = event.kind
        duration = event.param("duration")
        if kind == "disk.fail":
            target.fail(event.param("reason", "planned fault"))
            self._record(event)
        elif kind == "disk.fail_after_writes":
            writes = event.param("writes")
            arm_fail_after_writes(
                target, writes, "write-count fault",
                on_fire=lambda: self._record(event, f"after {writes} writes"),
            )
        elif kind == "disk.repair":
            target.repair()
            self._record(event)
        elif kind == "disk.degrade":
            factor = event.param("factor")
            target.set_slowdown(factor)
            self._record(event, f"factor={factor!r}")
            yield self.env.timeout(duration)
            target.set_slowdown(1.0)
            self._record(event, "reverted")
        elif kind == "disk.flaky":
            start_block = event.param("start_block")
            nblocks = event.param("nblocks")
            target.mark_flaky(start_block, nblocks)
            self._record(event, f"blocks=[{start_block},{start_block + nblocks})")
            yield self.env.timeout(duration)
            target.clear_flaky(start_block, nblocks)
            self._record(event, "reverted")
        elif kind == "net.partition":
            target.set_fault(partitioned=True)
            self._record(event)
            yield self.env.timeout(duration)
            target.set_fault(partitioned=False)
            self._record(event, "healed")
        elif kind == "net.loss":
            probability = event.param("probability")
            stream = SeededStream(self.master_seed, f"fault-loss[{seq}]")
            target.set_fault(loss=probability, loss_stream=stream)
            self._record(event, f"p={probability!r}")
            yield self.env.timeout(duration)
            target.set_fault(loss=0.0)
            self._record(event, "reverted")
        elif kind == "net.latency":
            extra = event.param("extra")
            target.set_fault(extra_latency=extra)
            self._record(event, f"extra={extra!r}")
            yield self.env.timeout(duration)
            target.set_fault(extra_latency=0.0)
            self._record(event, "reverted")
        elif kind == "server.crash":
            target.crash()
            self._record(event)
        elif kind == "server.restart":
            self._record(event, "boot begins")
            yield from target.boot()
            self._record(event, "serving")
        else:
            raise ConsistencyError(
                f"fault kind {kind!r} validated but has no executor"
            )

    def _record(self, event: FaultEvent, detail: str = "") -> None:
        self.firings.append((self.env.now, event.kind, event.target, detail))
        self.metrics.counter(
            "repro_fault_firings_total", kind=event.kind
        ).inc()
        if self._tracer is not None:
            self._tracer.emit("fault", f"{event.kind} {event.target}",
                              detail=detail)
