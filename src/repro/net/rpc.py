"""Amoeba-style RPC over the simulated Ethernet (substrate S6).

Amoeba's kernel primitives were ``trans`` (client: send request, await
reply), ``getreq`` (server: await a request on a port), and ``putrep``
(server: send the reply). We reproduce that trio:

* Servers subclass :class:`RpcService`: an opcode table plus a
  ``_dispatch`` generator. The skeleton claims the 48-bit port with
  :meth:`~RpcTransport.register` and runs the one serve loop — ``yield
  endpoint.getreq()``, dispatch, ``yield from endpoint.putrep(...)`` —
  in the worker's own process, so a crash interrupts a reply in
  mid-transmission instead of letting a detached sender finish it.
* Clients ``yield from rpc.trans(port, request)``, normally through a
  stub built on :class:`repro.client.retry.RpcStub` (retry, the dedupe
  guard, and re-raising marshalled errors).

Messages carry real Python payloads (capabilities, bytes) for
functionality, and a computed **wire size** for timing; the Ethernet
charges fragmentation, per-packet overhead and medium contention.

Error model: server handlers either return a reply or raise a
:class:`~repro.errors.ReproError`; the transport marshals the status
code, and the client stub re-raises the matching exception — exactly
how Amoeba's std error codes travelled.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Generic, Optional, TypeVar

from ..capability import CAP_WIRE_SIZE, Capability, port_for_name
from ..errors import (
    BadRequestError,
    ConsistencyError,
    ReproError,
    RpcTimeoutError,
    ServerDownError,
    Status,
)
from ..obs import DEFAULT_BUCKETS, MetricsRegistry
from ..profiles import CpuProfile
from ..sim import (AnyOf, Environment, Event, Interrupt, SeededStream,
                   Store, Tracer)

__all__ = ["RpcRequest", "RpcReply", "RpcService", "RpcTransport",
           "ServiceEndpoint"]

#: Fixed bytes of an RPC header on the wire (transaction id, port,
#: opcode, sizes) — mirrors Amoeba's header block.
HEADER_WIRE_SIZE = 32


@dataclass(slots=True)
class RpcRequest:
    """A request as seen by a server."""

    opcode: int
    cap: Optional[Capability] = None
    args: tuple = ()
    body: bytes = b""
    # Filled by the transport:
    reply_event: Optional[Event] = field(default=None, init=False)
    # transaction id for duplicate suppression
    txid: Optional[int] = field(default=None, init=False)
    # reply fragments still missing
    reply_missing: Optional[list] = field(default=None, init=False)
    # span opened at inbox entry, closed at getreq
    queue_span: int = field(default=0, init=False)

    @property
    def wire_size(self) -> int:
        size = HEADER_WIRE_SIZE + len(self.body) + 8 * len(self.args)
        if self.cap is not None:
            size += CAP_WIRE_SIZE
        return size


@dataclass(slots=True)
class RpcReply:
    """A reply as seen by a client."""

    status: int = int(Status.OK)
    args: tuple = ()
    body: bytes = b""
    caps: tuple = ()
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == Status.OK

    @property
    def wire_size(self) -> int:
        return (
            HEADER_WIRE_SIZE
            + len(self.body)
            + 8 * len(self.args)
            + CAP_WIRE_SIZE * len(self.caps)
        )


class ServiceEndpoint:
    """One incarnation of a server, everything a crash ends: the inbox,
    the at-most-once bookkeeping (transactions in progress, a bounded
    cache of recent replies for resends), the member processes, the
    secret mint and the RAM tables its service's subclass declares. Every
    ``boot()`` makes a fresh one; without a transport, none routes to it."""

    REPLY_CACHE_SIZE = 256

    secrets: SeededStream  # the mint, keyed when serving starts

    def __init__(self, env: Environment, port: int,
                 transport: Optional["RpcTransport"]):
        self.env = env
        self.transport = transport
        self.port = port
        self.inbox: Store = Store(env)
        self.down = False
        #: txid -> request, from delivery until its reply (or a resend
        #: of it) has left the wire: queued, in service or mid-reply.
        #: These are the clients a crash owes an answer.
        self.in_progress: dict[int, RpcRequest] = {}
        self.reply_cache: "OrderedDict[int, RpcReply]" = OrderedDict()
        self.members: dict = {}  # process -> None, see spawn

    def mint_secret(self) -> int:
        """A fresh 48-bit secret for a new object's capabilities."""
        return self.secrets.randint(1, (1 << 48) - 1)

    def getreq(self) -> Event:
        """Event firing with the next :class:`RpcRequest`."""
        return self.inbox.get()

    def putrep(self, request: RpcRequest, reply: RpcReply):
        """Generator transmitting ``reply`` for ``request``; run it with
        ``yield from`` so that interrupting the server interrupts the
        transmission.

        The server blocks until the reply has left the wire (the Bullet
        server is single-threaded, §3), then the client's trans fires.
        The reply is cached against the transaction id so a duplicate
        (retransmitted) request is answered without re-executing — the
        at-most-once half of Amoeba's RPC semantics.
        """
        if request.reply_event is None:
            raise ConsistencyError("reply for a request that was never sent")
        self.reply_cache[request.txid] = reply
        while len(self.reply_cache) > self.REPLY_CACHE_SIZE:
            self.reply_cache.popitem(last=False)
        request.reply_missing = None
        yield from self.send_reply(request, reply)

    def send_reply(self, request: RpcRequest, reply: RpcReply):
        """Put the reply fragments the client is still missing on the
        wire (all of them the first time); the transaction is over once
        none is lost."""
        lost = yield from self.transport.ethernet.send_fragments(
            reply.wire_size, request.reply_missing
        )
        self.in_progress.pop(request.txid, None)
        request.reply_missing = lost or None
        if not lost and not request.reply_event.triggered:
            request.reply_event.succeed(reply)

    def require_up(self) -> None:
        """The one refusal of a dead incarnation: once :meth:`crash` has
        run, it starts nothing and writes nothing."""
        if self.down:
            raise ServerDownError(f"port {self.port:#x} crashed")

    def write(self, target, block: int, data: bytes) -> Event:
        """``target.write(block, data)`` for this incarnation, where
        ``target`` is a disk or a mirror: the target's own event, or
        :class:`ServerDownError` once the incarnation is down. Every
        timed disk write of a server goes through here or through
        :meth:`write_ordered`."""
        self.require_up()
        return target.write(block, data)

    def write_ordered(self, mirror, extents, need: int) -> tuple:
        """``mirror.write_ordered(extents, need)`` (CREATE's ordered,
        per-replica form) behind the same refusal as :meth:`write`."""
        self.require_up()
        return mirror.write_ordered(extents, need)

    def spawn(self, body):
        """Start the generator ``body`` as a member process, which
        :meth:`crash` interrupts wherever it stands."""
        self.require_up()
        proc = self.env.process(self._member(body))
        self.members[proc] = None
        return proc

    def _member(self, body):
        """Process: ``body``, ended quietly by a crash."""
        try:
            yield from body
        except Interrupt:
            if not self.down:
                raise  # not the crash: a member must not end quietly
        finally:
            self.members.pop(self.env.active_process, None)

    def crash(self) -> None:
        """End the incarnation, like a power failure: every client whose
        request was queued, in service or mid-reply gets
        :class:`ServerDownError` now (a client without a timeout would
        otherwise wait forever), every member process is interrupted,
        and future requests fail at delivery."""
        self.down = True
        owed, self.in_progress = self.in_progress, {}
        for request in owed.values():
            if not request.reply_event.triggered:
                request.reply_event.fail(
                    ServerDownError(f"port {self.port:#x} crashed")
                )
        members, self.members = self.members, {}
        for proc in members:
            if proc.is_alive and proc is not self.env.active_process:
                proc.interrupt("server crash")


class RpcTransport:
    """The port registry plus client-side ``trans``."""

    def __init__(self, env: Environment, ethernet, cpu: CpuProfile,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.env = env
        self.ethernet = ethernet
        self.cpu = cpu
        self._ports: dict[int, ServiceEndpoint] = {}
        self._routes: list = []
        self._tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._retransmits = self.metrics.counter("repro_rpc_retransmits_total")
        self._txid = 0
        #: Retransmission policy (only exercised on lossy networks or
        #: when a call sets a timeout): resend after this interval, give
        #: up after max_retransmits sends.
        self.retransmit_interval = 0.5
        self.max_retransmits = 10

    @property
    def tracer(self) -> Optional[Tracer]:
        """The tracer ``trans`` records into (None: untraced)."""
        return self._tracer

    def add_route(self, gateway) -> None:
        """Install a gateway consulted for ports not served locally
        (see :mod:`repro.net.gateway`)."""
        self._routes.append(gateway)

    def register(self, endpoint: ServiceEndpoint) -> ServiceEndpoint:
        """Route ``endpoint``'s port to it; returns the endpoint."""
        port = endpoint.port
        if port in self._ports and not self._ports[port].down:
            raise ValueError(f"port {port:#x} already registered")
        self._ports[port] = endpoint
        return endpoint

    def lookup(self, port: int) -> Optional[ServiceEndpoint]:
        """The endpoint registered on ``port``, if any (locate step)."""
        return self._ports.get(port)

    def new_txid(self) -> int:
        """Mint a transaction id up front.

        Normally :meth:`trans` assigns txids itself, but a client that
        wants to *re-run* a non-idempotent transaction (a CREATE whose
        reply was lost) pre-assigns one and reuses the request object:
        every resend then carries the same txid, so the server's
        duplicate suppression turns the retry into an idempotent
        reply-replay instead of a second execution.
        """
        self._txid += 1
        return self._txid

    def trans(self, port: int, request: RpcRequest,
              timeout: Optional[float] = None):
        """A process performing one transaction: send ``request`` to
        ``port``, await the reply. Returns the :class:`RpcReply`.

        Raises :class:`ServerDownError` for unknown/crashed ports (after
        the locate timeout), :class:`RpcTimeoutError` when ``timeout``
        expires, and re-raises marshalled server errors.
        """
        endpoint = self._ports.get(port)
        if endpoint is None or endpoint.down:
            # Not served at this site: try the wide-area gateways
            # ("Gateways provide transparent communication among Amoeba
            # sites", §2.1).
            for gateway in self._routes:
                if gateway.serves(port):
                    yield self.env.timeout(
                        len(request.body) * self.cpu.memcpy_per_byte
                    )
                    yield self.env.process(
                        self.ethernet.send_message(request.wire_size)
                    )
                    reply = yield self.env.process(
                        gateway.forward(port, request, timeout)
                    )
                    yield self.env.timeout(
                        len(reply.body) * self.cpu.memcpy_per_byte
                    )
                    self._trace("rpc", "trans forwarded", port=port,
                                opcode=request.opcode, via=gateway.name)
                    return reply
            # Port locate fails after a retry interval.
            yield self.env.timeout(timeout if timeout is not None else 1.0)
            raise ServerDownError(f"no server listening on port {port:#x}")
        # Marshal, then transmit with retransmission: at-least-once on
        # the wire, exactly-once at the server (duplicate suppression in
        # the endpoint).
        trans_span = 0
        if self._tracer is not None:
            trans_span = self._tracer.begin_span(
                "span", "rpc.trans", port=port, opcode=request.opcode
            )
        attempts = 0
        try:
            # Marshalling copy.
            yield self.env.timeout(
                len(request.body) * self.cpu.memcpy_per_byte)
            request.reply_event = Event(self.env)
            if request.txid is None:
                request.txid = self.new_txid()
            deadline = self.env.now + timeout if timeout is not None else None
            missing = None           # fragment indices still to deliver
            request_delivered = False
            while True:
                if not request_delivered:
                    lost = yield from self.ethernet.send_fragments(
                        request.wire_size, missing
                    )
                    if lost:
                        missing = lost  # selective retransmission next round
                    else:
                        request_delivered = True
                        missing = None
                        self._deliver(endpoint, request)
                else:
                    # The request is complete server-side; we are chasing a
                    # lost reply. A header-only probe makes the endpoint
                    # resend its cached reply.
                    probe_lost = yield from self.ethernet.send_fragments(
                        HEADER_WIRE_SIZE
                    )
                    if not probe_lost:
                        self._deliver(endpoint, request)
                attempts += 1
                if not self.ethernet.lossy and timeout is None:
                    # Lossless, no deadline: the reply will come (or the
                    # endpoint will fail the event on a crash).
                    reply = yield request.reply_event
                    break
                reply_event = request.reply_event
                if reply_event.processed and not reply_event.ok:
                    # Crashed while a retransmission was on the wire.
                    raise reply_event.value
                wait = self.retransmit_interval
                if deadline is not None:
                    wait = min(wait, max(deadline - self.env.now, 0.0))
                timer = self.env.timeout(wait)
                woken = AnyOf(self.env, [reply_event, timer])
                if not reply_event.processed:
                    # AnyOf consumes a crash's failed reply but waits on
                    # for a success, i.e. the timer: wake at the crash.
                    reply_event.callbacks.append(
                        lambda _: woken.triggered or woken.succeed())
                yield woken
                if reply_event.triggered:
                    if not reply_event.ok:
                        raise reply_event.value
                    reply = reply_event.value
                    break
                if deadline is not None and self.env.now >= deadline:
                    raise RpcTimeoutError(
                        f"transaction on port {port:#x} timed out after {timeout}s"
                    )
                if attempts >= self.max_retransmits:
                    raise RpcTimeoutError(
                        f"transaction on port {port:#x} gave up after "
                        f"{attempts} transmissions"
                    )
                self._retransmits.inc()
            # Client-side copy of the reply body out of the network buffers.
            yield self.env.timeout(
                len(reply.body) * self.cpu.memcpy_per_byte)
        finally:
            if self._tracer is not None:
                self._tracer.end_span(trans_span, "span", "rpc.trans",
                                      attempts=attempts)
        if self._tracer is not None:
            self._trace("rpc", "trans complete", port=port,
                        opcode=request.opcode, status=reply.status)
        return reply

    def _deliver(self, endpoint: ServiceEndpoint, request: RpcRequest) -> None:
        """Hand an arrived request to the endpoint, suppressing
        duplicates of in-progress or already-answered transactions."""
        if endpoint.down:
            if not request.reply_event.triggered:
                request.reply_event.fail(
                    ServerDownError(f"port {endpoint.port:#x} crashed")
                )
            return
        if request.txid in endpoint.in_progress:
            return  # queued, in service or its reply on the wire: wait
        endpoint.in_progress[request.txid] = request
        cached = endpoint.reply_cache.get(request.txid)
        if cached is not None:
            # Answered before; the reply (or part of it) was lost.
            endpoint.spawn(endpoint.send_reply(request, cached))
            return
        if self._tracer is not None:
            request.queue_span = self._tracer.begin_span(
                "span", "rpc.queue", port=endpoint.port,
                opcode=request.opcode,
            )
        endpoint.inbox.put(request)

    @staticmethod
    def reply_for_error(exc: ReproError) -> RpcReply:
        """Marshal a server-side exception into an error reply."""
        return RpcReply(status=int(exc.status), message=str(exc))

    def _trace(self, category: str, message: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit(category, message, **fields)


Incarnation = TypeVar("Incarnation", bound=ServiceEndpoint)


class RpcService(Generic[Incarnation]):
    """The server half of the RPC plane, once, for every service.

    A service is an opcode table (:attr:`OPNAMES`) and a ``_dispatch``
    generator turning an :class:`RpcRequest` into an :class:`RpcReply`
    (or raising a :class:`~repro.errors.ReproError`). Everything around
    that is shared: claiming the port, the worker pool, the serve loop
    with its spans and per-op accounting, the error-reply chokepoint,
    the secret mint and the crash path.

    One reboot model (DESIGN.md §5c): ``boot()`` builds an incarnation
    (the service's :class:`ServiceEndpoint`) with all its volatile state,
    :meth:`crash` ends it: a reboot in place and a fresh instance are one.
    """

    #: opcode number -> operation name, for span and metric labels.
    OPNAMES: dict = {}

    #: Seeds the secret mint, with the name and the boot instant.
    master_seed = 0

    def __init__(self, env: Environment, name: str,
                 transport: Optional[RpcTransport] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 workers: int = 1):
        if workers < 1:
            raise BadRequestError(f"need at least one worker, got {workers}")
        self.env = env
        self.name = name
        self.port = port_for_name(name)
        self.transport = transport
        self.workers = workers
        self._tracer = tracer
        #: The registry this server accounts into: the caller's, else
        #: the transport's (one testbed, one registry), else private, so
        #: a standalone server still self-reports.
        if metrics is None:
            metrics = (transport.metrics if transport is not None
                       else MetricsRegistry())
        self.metrics = metrics
        self._endpoint: Optional[Incarnation] = None  # the current incarnation
        # Per-op instrument handles, resolved once per (server, label)
        # so the serve loop pays no registry lookup per request.
        self._op_seconds: dict = {}      # opname -> Histogram
        self._error_counters: dict = {}  # status name -> Counter

    def _start_serving(self, endpoint: Incarnation) -> None:
        """The tail of every ``boot()``, which builds ``endpoint`` and
        its tables: make it the current incarnation, key its secret mint
        by the instant (every boot reads the disk, so no two
        incarnations share one) and, on the RPC plane, claim the port
        and start the workers on the endpoint inbox, the admission queue
        (one worker: the paper's single-threaded loop, §3)."""
        endpoint.secrets = SeededStream(
            self.master_seed, f"{self.name}:secrets@{self.env.now!r}")
        self._endpoint = endpoint
        if self.transport is None:
            return
        self.transport.register(endpoint)
        for _ in range(self.workers):
            endpoint.spawn(self._serve(endpoint))

    def crash(self) -> None:
        """End the incarnation (:meth:`ServiceEndpoint.crash`): the
        disks keep what they hold, and RAM is dead until ``boot()``
        rebuilds it. A local-plane call is its caller's to stop."""
        if self._endpoint is not None:
            self._endpoint.crash()

    @property
    def incarnation(self) -> Incarnation:
        """The current incarnation, down or not: the observers' view."""
        if self._endpoint is None:
            raise BadRequestError(f"server {self.name} has never booted")
        return self._endpoint

    def _require_booted(self) -> Incarnation:
        """Refuse unless booted; returns the incarnation, which the
        calling handler works on throughout."""
        endpoint = self._endpoint
        if endpoint is None or endpoint.down:
            raise BadRequestError(f"server {self.name} is not booted")
        return endpoint

    def _dispatch(self, req: RpcRequest):
        """Generator: perform ``req``, return its :class:`RpcReply`."""
        raise NotImplementedError

    def _request_began(self, opname: str) -> None:
        """Per-request hook: a worker took a request off the admission
        queue."""

    def _request_ended(self, reply: Optional[RpcReply]) -> None:
        """Per-request hook: the dispatch is over; ``reply`` is None when
        a crash cut it short."""

    def _serve(self, endpoint: ServiceEndpoint):
        """One worker of ``endpoint``'s service pool."""
        while not endpoint.down:
            req = yield endpoint.getreq()
            tracer = self._tracer
            opname = self.OPNAMES.get(req.opcode) or str(req.opcode)
            op_span = net_span = 0
            if tracer is not None:
                tracer.end_span(req.queue_span, "span", "rpc.queue")
                op_span = tracer.begin_span(
                    "span", "server.op", op=opname, server=self.name)
            started = self.env.now
            self._request_began(opname)
            reply = None
            try:
                try:
                    reply = yield from self._dispatch(req)
                except ReproError as exc:
                    reply = self._error_reply(exc)
            finally:
                self._request_ended(reply)
            hist = self._op_seconds.get(opname)
            if hist is None:
                hist = self._op_seconds[opname] = self.metrics.histogram(
                    "repro_server_op_seconds", DEFAULT_BUCKETS,
                    server=self.name, op=opname)
            hist.observe(self.env.now - started)
            if tracer is not None:
                tracer.end_span(op_span, "span", "server.op",
                                status=reply.status)
                net_span = tracer.begin_span("span", "server.net",
                                             op=opname)
            yield from endpoint.putrep(req, reply)
            if tracer is not None:
                tracer.end_span(net_span, "span", "server.net")

    def _error_reply(self, exc: ReproError) -> RpcReply:
        """The single error-accounting chokepoint: every error reply any
        server sends is marshalled and counted here
        (``repro_server_error_replies_total``), so no serve loop can
        marshal an error without counting it."""
        status = exc.status.name
        counter = self._error_counters.get(status)
        if counter is None:
            counter = self._error_counters[status] = self.metrics.counter(
                "repro_server_error_replies_total",
                server=self.name, status=status)
        counter.inc()
        self._trace("rpc", "error reply", server=self.name, status=status)
        return RpcTransport.reply_for_error(exc)

    def _trace(self, category: str, message: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit(category, message, **fields)
