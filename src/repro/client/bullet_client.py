"""Client-side access to a Bullet server (S12).

Two interchangeable stubs expose the same process-method interface
(create/size/read/delete/modify/restrict):

* :class:`BulletClient` — the real thing: marshals requests over the
  simulated network to a server's port (the paper's measured path).
* :class:`LocalBulletStub` — calls the server's local plane directly
  (no network): used when composing servers in one process and in unit
  tests.

:class:`CachingBulletClient` adds the §5 client cache: "Client caching
of immutable files is straightforward" — a capability names immutable
bytes, so a hit never needs revalidation against the *file* server; the
cached entry is correct by construction. What may change is which
capability a *name* refers to, and that is checked against the
**directory** service: "simply done by looking up its capability in the
directory service, and comparing it to the capability on which the copy
is based." The cache itself is a
:class:`~repro.client.workstation.WorkstationCache` — shared by every
client process on one simulated workstation, with local check-field
verification so a hot READ touches neither the network nor the server.
"""

from __future__ import annotations

from typing import Optional

from ..capability import Capability, RIGHT_READ, rights_names
from ..core import OPCODES, BulletServer
from ..errors import RightsError
from ..net import RpcRequest, RpcTransport
from ..obs import MetricsRegistry
from ..sim import SeededStream, Tracer
from .retry import RetryPolicy, RpcStub
from .workstation import WorkstationCache

__all__ = ["BulletClient", "LocalBulletStub", "CachingBulletClient"]


class BulletClient(RpcStub):
    """RPC stub for the Bullet protocol.

    Under a :class:`~repro.client.retry.RetryPolicy`, READ/SIZE/STAT/
    RESTRICT retry freely and CREATE/MODIFY/DELETE under the txid
    dedupe guard (see :class:`~repro.client.retry.RpcStub`).
    """

    def __init__(self, env, rpc: RpcTransport, server_port: int,
                 timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 retry_stream: Optional[SeededStream] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "client"):
        super().__init__(env, rpc, timeout, retry, retry_stream, tracer,
                         metrics, name)
        self.port = server_port

    def _call(self, request: RpcRequest, idempotent: bool = True):
        return self.transact(self.port, request, idempotent)

    def create(self, data: bytes, p_factor: Optional[int] = None):
        """Process: BULLET.CREATE; returns the owner capability."""
        args = (p_factor,) if p_factor is not None else ()
        reply = yield from self._call(
            RpcRequest(opcode=OPCODES["CREATE"], args=args, body=bytes(data)),
            idempotent=False,
        )
        return reply.caps[0]

    def size(self, cap: Capability):
        """Process: BULLET.SIZE; returns the file size in bytes."""
        reply = yield from self._call(RpcRequest(opcode=OPCODES["SIZE"], cap=cap))
        return reply.args[0]

    def read(self, cap: Capability):
        """Process: BULLET.READ; returns the whole file."""
        reply = yield from self._call(RpcRequest(opcode=OPCODES["READ"], cap=cap))
        return reply.body

    def delete(self, cap: Capability):
        """Process: BULLET.DELETE."""
        yield from self._call(RpcRequest(opcode=OPCODES["DELETE"], cap=cap),
                              idempotent=False)

    def modify(self, cap: Capability, offset: int, delete_bytes: int,
               insert_data: bytes, p_factor: Optional[int] = None):
        """Process: the MODIFY extension; returns the new capability."""
        reply = yield from self._call(
            RpcRequest(
                opcode=OPCODES["MODIFY"],
                cap=cap,
                args=(offset, delete_bytes, p_factor),
                body=bytes(insert_data),
            ),
            idempotent=False,
        )
        return reply.caps[0]

    def restrict(self, cap: Capability, mask: int):
        """Process: server-side rights restriction."""
        reply = yield from self._call(
            RpcRequest(opcode=OPCODES["RESTRICT"], cap=cap, args=(mask,))
        )
        return reply.caps[0]

    def stat(self, cap: Capability):
        """Process: server status snapshot (requires any valid cap)."""
        reply = yield from self._call(RpcRequest(opcode=OPCODES["STAT"], cap=cap))
        return reply.args[0]


class LocalBulletStub:
    """Same interface, wired straight to a server's local plane.

    Each method is a thin process delegating to the corresponding
    :class:`~repro.core.BulletServer` operation; see those docstrings.
    """

    def __init__(self, server: BulletServer):
        self.server = server
        self.env = server.env
        self.port = server.port

    def create(self, data: bytes, p_factor: Optional[int] = None):
        """Process: BULLET.CREATE on the local server."""
        return (yield from self.server.create(data, p_factor))

    def size(self, cap: Capability):
        """Process: BULLET.SIZE on the local server."""
        return (yield from self.server.size(cap))

    def read(self, cap: Capability):
        """Process: BULLET.READ on the local server."""
        return (yield from self.server.read(cap))

    def delete(self, cap: Capability):
        """Process: BULLET.DELETE on the local server."""
        yield from self.server.delete(cap)

    def modify(self, cap: Capability, offset: int, delete_bytes: int,
               insert_data: bytes, p_factor: Optional[int] = None):
        """Process: the MODIFY extension on the local server."""
        return (yield from self.server.modify(cap, offset, delete_bytes,
                                              insert_data, p_factor))

    def restrict(self, cap: Capability, mask: int):
        """Process: server-side rights restriction."""
        return (yield from self.server.restrict_cap(cap, mask))

    def stat(self, cap: Capability):
        """Process: status snapshot of the local server."""
        return (yield from self.server.stat(cap))


class CachingBulletClient:
    """A Bullet stub wrapper reading through a workstation's cache.

    Entries are keyed by object and carry locally verifiable
    capability state (see :class:`~repro.client.workstation
    .WorkstationCache`): a hit — under the admitting capability or any
    locally verified restriction of it — costs no RPC and no server
    time. ``lookup_validated`` implements the §5 freshness check for
    *names*: resolve the name in the directory and compare the returned
    capability with the capability the cached copy is based on; that
    directory round trip is the plane's only coherence traffic.

    ``cache`` is the workstation's :class:`WorkstationCache`, shared by
    all the client processes of one simulated workstation.
    ``hits``/``misses`` count this client's outcomes; the cache's own
    counters aggregate the whole workstation.
    """

    def __init__(self, stub, cache: WorkstationCache):
        self.stub = stub
        self.env = stub.env
        self.cache = cache
        self.hits = 0
        self.misses = 0

    # The mutating operations pass straight through.

    def create(self, data: bytes, p_factor: Optional[int] = None):
        """Process: pass-through create (new files are not pre-cached;
        caching is driven by read traffic only)."""
        return (yield from self.stub.create(data, p_factor))

    def size(self, cap: Capability):
        """Process: size from the cache when the file is held locally.

        A size hit is a real hit: it refreshes the entry's recency and
        is accounted exactly like a read hit (hot SIZE traffic used to
        silently age entries toward eviction and under-report hits)."""
        result = yield from self._probe(cap, op="size")
        if result is not None:
            return len(result.data)
        return (yield from self.stub.size(cap))

    def delete(self, cap: Capability):
        """Process: delete; invalidates the cached copy only after the
        server reports success — a failed DELETE (forged cap, missing
        rights) must not evict a perfectly valid immutable entry. The
        stub's retry layer dedupes re-sends under a pre-assigned txid,
        so exactly one success reaches the invalidation."""
        yield from self.stub.delete(cap)
        self.cache.invalidate(cap)

    def modify(self, cap: Capability, offset: int, delete_bytes: int,
               insert_data: bytes, p_factor: Optional[int] = None):
        """Process: pass-through MODIFY (the result is a new file)."""
        return (yield from self.stub.modify(cap, offset, delete_bytes,
                                            insert_data, p_factor))

    def read(self, cap: Capability):
        """Process: read through the workstation cache. A hit — locally
        verified, rights-checked — touches neither the network nor the
        server."""
        result = yield from self._probe(cap, op="read")
        if result is not None:
            return result.data
        data = yield from self.stub.read(cap)
        self.cache.admit(cap, data)
        return data

    def restrict(self, cap: Capability, mask: int):
        """Process: rights restriction, client-side when the
        workstation cache can vouch for the owner capability
        (:meth:`~repro.client.workstation.WorkstationCache.restrict`:
        one one-way function, no RPC, and a read under the restriction
        is a verified hit). Everything else goes to the server, the
        authority on forged and reincarnated capabilities, so a bogus
        owner capability raises here instead of yielding a
        plausible-looking local derivation."""
        local = self.cache.restrict(cap, mask)
        if local is None:
            return (yield from self.stub.restrict(cap, mask))
        restricted, cost = local
        if cost > 0.0:
            yield self.env.timeout(cost)
        return restricted

    def stat(self, cap: Capability):
        """Process: pass-through server status snapshot."""
        return (yield from self.stub.stat(cap))

    def lookup_validated(self, directory, dir_cap: Capability, name: str,
                         based_on: Capability):
        """Process: the §5 currency check. Returns ``(is_current, cap)``:
        looks ``name`` up in the directory and decides whether the
        cached copy based on ``based_on`` is still what the name means.

        Two classes of false staleness are avoided here. First, the
        comparison is **evidence-based**, not raw equality: a copy
        cached under a restricted capability compares current against
        the directory's owner capability via
        :meth:`~repro.client.workstation.WorkstationCache
        .currency_evidence` (object identity plus secret lineage —
        never raw rights bits), while a delete+recreate that reuses the
        object number correctly compares stale (new secret). Second,
        the check runs against the **whole capability set** bound to
        the name — one member per replica — so a copy based on a
        non-primary member is current, not a forced re-fetch.

        When current, returns the matching member; when stale, the
        set's primary (the capability to re-fetch under).
        """
        caps = yield from directory.lookup_set(dir_cap, name)
        for cap in caps:
            proven, cost = self.cache.currency_evidence(based_on, cap)
            if cost > 0.0:
                yield self.env.timeout(cost)
            if proven:
                return True, cap
        return False, caps[0]

    def _probe(self, cap: Capability, op: str):
        """Process: one accounted cache lookup. Returns the
        :class:`~repro.client.workstation.LookupResult` on a hit, None
        on a miss; raises locally — without any server traffic — when
        the capability verifies but lacks read rights."""
        result = self.cache.lookup(cap, RIGHT_READ, op=op)
        # No pin is taken across the timeout: ``result.data`` is the
        # immutable bytes object itself, so a sibling's eviction or
        # invalidation meanwhile can drop the entry but never tear the
        # copy this process already holds.
        if result.verify_cost > 0.0:
            yield self.env.timeout(result.verify_cost)
        if result.denied:
            raise RightsError(
                f"{cap} lacks rights {rights_names(RIGHT_READ)}"
            )
        if result.data is not None:
            self.hits += 1
            return result
        self.misses += 1
        return None
