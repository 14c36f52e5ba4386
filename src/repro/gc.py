"""Garbage collection of unreachable immutable files.

Immutability plus capability naming creates a classic problem: a file
whose last capability is lost (a client crashed between BULLET.CREATE
and the directory append, a pruned version, an abandoned temporary) can
never be deleted explicitly. Amoeba solved it with **object aging**:
servers give every object a number of *lives*; a periodic sweep
(``std_age``) decrements them, a ``std_touch`` resets them, and an
object that reaches zero is reclaimed. The directory service touches
everything it can reach, so exactly the orphans die.

:func:`gc_sweep` runs one cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .core import BulletServer
from .directory import DirectoryServer

__all__ = ["GcReport", "gc_sweep"]


@dataclass
class GcReport:
    """Outcome of one sweep."""

    touched: int = field(default=0, init=False)
    reclaimed: list = field(default_factory=list, init=False)


def gc_sweep(bullet: BulletServer,
             directory_servers: Iterable[DirectoryServer],
             include_history: bool = True,
             extra_collectors: Iterable = ()):
    """Process: one mark(touch)-and-age cycle.

    Touch every capability reachable through the directory service that
    names an object on ``bullet``, then age every object on the server.
    Files survive ``max_lives`` sweeps without a touch before they are
    reclaimed, so a client holding an unbound capability has that many
    periods to bind it; binding is the durable form of reachability.

    ``extra_collectors``: zero-argument callables returning a *process*
    that yields further reachable capabilities — used by structures the
    directory cannot see inside, e.g. the interior nodes of the
    immutable B-tree in ``examples/immutable_database.py``
    (``lambda: tree.collect_caps(root)``).
    """
    report = GcReport()
    for dirs in directory_servers:
        caps = yield from dirs.reachable_caps(include_history=include_history)
        for cap in caps:
            if cap.port == bullet.port:
                yield from bullet.touch(cap)
                report.touched += 1
    for collector in extra_collectors:
        caps = yield from collector()
        for cap in caps:
            if cap.port == bullet.port:
                yield from bullet.touch(cap)
                report.touched += 1
    report.reclaimed = yield from bullet.age_all()
    return report
