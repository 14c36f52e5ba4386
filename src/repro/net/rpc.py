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
from dataclasses import dataclass
from typing import Optional

from ..capability import CAP_WIRE_SIZE, Capability, port_for_name
from ..errors import (
    BadRequestError,
    ConsistencyError,
    ReproError,
    RpcTimeoutError,
    ServerDownError,
    Status,
)
from ..obs import MetricsRegistry
from ..profiles import CpuProfile
from ..sim import AnyOf, Environment, Event, Interrupt, Store, Tracer

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
    reply_event: Optional[Event] = None
    txid: Optional[int] = None  # transaction id for duplicate suppression
    reply_missing: Optional[list] = None  # reply fragments still missing
    queue_span: int = 0  # span opened at inbox entry, closed at getreq

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
    """A registered server port: an inbox of pending requests, plus the
    at-most-once bookkeeping (the transactions in progress and a bounded
    cache of recent replies for duplicate-request resends)."""

    REPLY_CACHE_SIZE = 256

    def __init__(self, transport: "RpcTransport", port: int):
        self.transport = transport
        self.port = port
        self.inbox: Store = Store(transport.env)
        self.down = False
        #: txid -> request, from delivery until its reply (or a resend
        #: of it) has left the wire: queued, in service or mid-reply.
        #: These are the clients a crash owes an answer.
        self.in_progress: dict[int, RpcRequest] = {}
        self.replying: set[int] = set()  # replies currently on the wire
        self.reply_cache: "OrderedDict[int, RpcReply]" = OrderedDict()

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
        self.replying.add(request.txid)
        request.reply_missing = None
        yield from self.send_reply(request, reply)

    def send_reply(self, request: RpcRequest, reply: RpcReply):
        """Put the reply fragments the client is still missing on the
        wire (all of them the first time); the transaction is over once
        none is lost."""
        lost = yield from self.transport.ethernet.send_fragments(
            reply.wire_size, request.reply_missing
        )
        self.replying.discard(request.txid)
        self.in_progress.pop(request.txid, None)
        request.reply_missing = lost or None
        if not lost and not request.reply_event.triggered:
            request.reply_event.succeed(reply)

    def crash(self) -> None:
        """Take the service down. Every client whose request was queued,
        in service or mid-reply gets :class:`ServerDownError` now (a
        client without a timeout would otherwise wait forever); future
        requests fail at delivery."""
        self.down = True
        owed, self.in_progress = self.in_progress, {}
        self.replying.clear()
        self.reply_cache.clear()
        while self.inbox.try_get() is not None:
            pass
        for request in owed.values():
            if not request.reply_event.triggered:
                request.reply_event.fail(
                    ServerDownError(f"port {self.port:#x} crashed")
                )


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

    def add_route(self, gateway) -> None:
        """Install a gateway consulted for ports not served locally
        (see :mod:`repro.net.gateway`)."""
        self._routes.append(gateway)

    def register(self, port: int) -> ServiceEndpoint:
        """Claim ``port`` for a server; returns its endpoint."""
        if port in self._ports and not self._ports[port].down:
            raise ValueError(f"port {port:#x} already registered")
        endpoint = ServiceEndpoint(self, port)
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
            # Marshalling copy. An empty body costs a zero-length
            # timeout in the reference; skipping it is exact only when
            # no other event shares this tick (see sim.core).
            delay = len(request.body) * self.cpu.memcpy_per_byte
            if delay or not self.env.can_collapse(self.env.now):
                yield self.env.timeout(delay)
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
                wait = self.retransmit_interval
                if deadline is not None:
                    wait = min(wait, max(deadline - self.env.now, 0.0))
                timer = self.env.timeout(wait)
                yield AnyOf(self.env, [request.reply_event, timer])
                if request.reply_event.triggered:
                    if not request.reply_event.ok:
                        raise request.reply_event.value
                    reply = request.reply_event.value
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
            delay = len(reply.body) * self.cpu.memcpy_per_byte
            if delay or not self.env.can_collapse(self.env.now):
                yield self.env.timeout(delay)
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
        if request.txid in endpoint.replying:
            return  # the reply is on the wire right now; just wait
        cached = endpoint.reply_cache.get(request.txid)
        if cached is not None:
            # Answered before; the reply (or part of it) was lost.
            endpoint.replying.add(request.txid)
            endpoint.in_progress[request.txid] = request
            # Intentional fork: retransmitting a cached reply happens
            # behind the server's back; nobody awaits it by design.
            self.env.process(  # repro: allow(S001)
                endpoint.send_reply(request, cached)
            )
            return
        if request.txid in endpoint.in_progress:
            return  # duplicate of a transaction still being served
        endpoint.in_progress[request.txid] = request
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


class RpcService:
    """The server half of the RPC plane, once, for every service.

    A service is an opcode table (:attr:`OPNAMES`) and a ``_dispatch``
    generator turning an :class:`RpcRequest` into an :class:`RpcReply`
    (or raising a :class:`~repro.errors.ReproError`). Everything around
    that is shared: claiming the port, the worker pool, the serve loop
    with its spans and per-op accounting, the error-reply chokepoint,
    and the crash path.

    Crash semantics (DESIGN.md §5c): :meth:`crash` answers every client
    whose request is queued, in service or mid-reply with
    :class:`~repro.errors.ServerDownError` at the crash instant, then
    interrupts every worker wherever it is — waiting for a request,
    halfway through serving one, or transmitting a reply (the reply runs
    inside the worker, so nothing is sent after the crash). A reboot
    registers a fresh endpoint and starts a fresh pool.
    """

    #: opcode number -> operation name, for span and metric labels.
    OPNAMES: dict = {}

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
        self._booted = False
        self._endpoint: Optional[ServiceEndpoint] = None
        self._serve_procs: list = []
        # Per-op instrument handles, resolved once per (server, label)
        # so the serve loop pays no registry lookup per request.
        self._op_seconds: dict = {}      # opname -> Histogram
        self._error_counters: dict = {}  # status name -> Counter

    def _start_serving(self) -> None:
        """The tail of every ``boot()``: mark the server booted and, on
        the RPC plane, claim the port and start the worker pool. All
        workers block on the same endpoint inbox, which is the admission
        queue: FIFO hand-off, no dispatcher process. With one worker it
        is the paper's single-threaded loop (§3: one request is handled
        at a time)."""
        self._booted = True
        if self.transport is not None:
            self._endpoint = self.transport.register(self.port)
            self._serve_procs = [self.env.process(self._serve())
                                 for _ in range(self.workers)]

    def crash(self) -> None:
        """Stop serving, like a power failure: durable state stays on
        the disks, a half-performed operation leaves whatever it had
        already written (the crash-consistency story). Subclasses
        extend this to drop their volatile state."""
        if self._endpoint is not None:
            self._endpoint.crash()
        self._booted = False
        procs, self._serve_procs = self._serve_procs, []
        for proc in procs:
            if proc.is_alive and proc is not self.env.active_process:
                proc.interrupt("server crash")

    def _require_booted(self) -> None:
        if not self._booted:
            raise BadRequestError(f"server {self.name} is not booted")

    def _dispatch(self, req: RpcRequest):
        """Generator: perform ``req``, return its :class:`RpcReply`."""
        raise NotImplementedError

    def _request_began(self, opname: str, queued: int) -> None:
        """Per-request hook: a worker took a request off the admission
        queue, leaving ``queued`` behind it."""

    def _request_ended(self, reply: Optional[RpcReply]) -> None:
        """Per-request hook: the dispatch is over; ``reply`` is None when
        a crash cut it short."""

    def _serve(self):
        """One worker of the service pool."""
        endpoint = self._endpoint
        try:
            while self._booted and endpoint is self._endpoint:
                req = yield endpoint.getreq()
                tracer = self._tracer
                opname = self.OPNAMES.get(req.opcode) or str(req.opcode)
                op_span = net_span = 0
                if tracer is not None:
                    tracer.end_span(req.queue_span, "span", "rpc.queue")
                    op_span = tracer.begin_span(
                        "span", "server.op", op=opname, server=self.name)
                started = self.env.now
                self._request_began(opname, len(endpoint.inbox))
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
                        "repro_server_op_seconds", server=self.name,
                        op=opname)
                hist.observe(self.env.now - started)
                if tracer is not None:
                    tracer.end_span(op_span, "span", "server.op",
                                    status=reply.status)
                    net_span = tracer.begin_span("span", "server.net",
                                                 op=opname)
                yield from endpoint.putrep(req, reply)
                if tracer is not None:
                    tracer.end_span(net_span, "span", "server.net")
        except Interrupt:
            return

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

    def _span_begin(self, name: str, **fields) -> int:
        # Call sites in hot loops pre-check self._tracer so the kwargs
        # dict is never built when tracing is off; this fallback check
        # keeps cold sites correct.
        if self._tracer is None:
            return 0
        return self._tracer.begin_span("span", name, **fields)

    def _span_end(self, span_id: int, name: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.end_span(span_id, "span", name, **fields)
