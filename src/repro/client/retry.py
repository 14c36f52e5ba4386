"""Client-side retry with seeded backoff (the fault plane's other half).

Amoeba's transport is at-least-once: a transaction that times out may or
may not have executed on the server. The retry layer therefore splits
operations into two classes:

* **Idempotent** (READ, SIZE, STAT, lookups): safe to re-issue freely —
  re-reading immutable bytes cannot change anything.
* **Non-idempotent** (CREATE, MODIFY, DELETE, directory mutations):
  re-issued only under a *dedupe guard* — the client pre-assigns the
  request's transaction id and re-sends the **same** request object, so
  the server's reply cache recognises the retry and replays the original
  reply instead of executing twice. If the server crashed in between
  (reply cache lost), a duplicate execution can slip through; for Bullet
  that duplicate is an unnamed committed file, which the garbage
  collector reclaims (see DESIGN.md, "Fault model & retry semantics").

Backoff is exponential with seeded jitter: delays come from a
:class:`~repro.sim.SeededStream`, never a global RNG, so a retry
schedule replays byte-identically for a given master seed.

:class:`RpcStub` is the one client call path every stub (Bullet,
directory, NFS) shares: send, dedupe guard, retry, and re-raising the
server's marshalled error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import (ReproError, RpcTimeoutError, ServerDownError,
                      error_for_status)
from ..net import RpcRequest, RpcTransport
from ..obs import MetricsRegistry
from ..sim import Environment, SeededStream, Tracer

__all__ = ["RetryPolicy", "Retrier", "RpcStub", "TRANSIENT_ERRORS"]

#: Errors that mean "the attempt may succeed if repeated": the server
#: was unreachable or the transaction timed out. Everything else (bad
#: capability, no space, media error surfaced as IO_ERROR status...) is
#: a definitive answer and is raised immediately.
TRANSIENT_ERRORS = (ServerDownError, RpcTimeoutError)


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative backoff schedule.

    ``backoff(attempt)`` for attempt k (0-based, i.e. the delay before
    re-issuing attempt k+1) is ``min(base_delay * multiplier**k,
    max_delay)``, jittered multiplicatively in ``[1-jitter, 1+jitter]``.
    ``deadline`` caps the *total* time budget across all attempts,
    measured from the first attempt's start.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    deadline: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1.0, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    def backoff(self, attempt: int, stream: Optional[SeededStream]) -> float:
        """The jittered delay after failed attempt ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        delay = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        if self.jitter > 0 and stream is not None and delay > 0:
            delay *= stream.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return delay


class Retrier:
    """Executes attempts under a :class:`RetryPolicy`.

    One Retrier serves one client stub; its counters (``attempts``,
    ``retries``, ``gave_up``) summarise the stub's whole life. The
    trace category "retry" records every re-issue and every give-up, so
    two same-seed runs can be compared line-for-line.
    """

    def __init__(self, env: Environment, policy: RetryPolicy,
                 stream: Optional[SeededStream] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "client"):
        self.env = env
        self.policy = policy
        self.stream = stream
        self._tracer = tracer
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._attempts = self.metrics.counter(
            "repro_client_retry_attempts_total", client=name)
        self._retries = self.metrics.counter(
            "repro_client_retries_total", client=name)
        self._gave_up = self.metrics.counter(
            "repro_client_retry_gave_up_total", client=name)

    # The life counters live in the registry; these read them back.

    @property
    def attempts(self) -> int:
        return self._attempts.value

    @property
    def retries(self) -> int:
        return self._retries.value

    @property
    def gave_up(self) -> int:
        return self._gave_up.value

    def run(self, make_attempt: Callable[[], object], op: str,
            idempotent: bool, dedupe: bool = False):
        """Process: run ``make_attempt()`` (a generator factory) until it
        succeeds, a non-transient error surfaces, or the policy is spent.

        ``make_attempt`` must build a *fresh* generator per call but may
        close over a shared request object — that is the dedupe guard:
        a non-idempotent op re-sends the identical, pre-assigned txid so
        the server deduplicates. Non-idempotent ops without ``dedupe``
        are never retried (the first transient error is raised).
        """
        policy = self.policy
        started = self.env.now
        last: Optional[ReproError] = None
        for attempt in range(policy.max_attempts):
            self._attempts.inc()
            try:
                result = yield from make_attempt()
                return result
            except TRANSIENT_ERRORS as exc:
                last = exc
                if not idempotent and not dedupe:
                    self._trace(f"{op} not retryable (no dedupe guard)",
                                attempt=attempt)
                    raise
            if attempt + 1 >= policy.max_attempts:
                break
            delay = policy.backoff(attempt, self.stream)
            if policy.deadline is not None:
                remaining = policy.deadline - (self.env.now - started)
                if remaining <= delay:
                    self._trace(f"{op} deadline exhausted", attempt=attempt)
                    break
            self._retries.inc()
            self._trace(f"{op} retrying", attempt=attempt, delay=delay,
                        error=type(last).__name__)
            if delay > 0:
                yield self.env.timeout(delay)
        self._gave_up.inc()
        self._trace(f"{op} gave up", attempts=self.attempts)
        if last is None:
            raise ServerDownError(f"{op}: retry loop ended without an error")
        raise last

    def _trace(self, message: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit("retry", message, **fields)


class RpcStub:
    """The client half of the RPC plane, once, for every stub.

    With a :class:`RetryPolicy`, calls retry on transient errors:
    idempotent ops freely, mutating ops under the txid dedupe guard —
    the request's transaction id is pre-assigned and the same request is
    re-sent, so the server's reply cache suppresses duplicate execution.
    The retry counters land in ``metrics`` — the transport's registry
    unless the caller passes one — so a testbed built around one
    transport exports them with everything else.
    """

    def __init__(self, env: Environment, rpc: RpcTransport,
                 timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 retry_stream: Optional[SeededStream] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "client"):
        self.env = env
        self.rpc = rpc
        self.timeout = timeout
        self.name = name
        self.metrics = metrics if metrics is not None else rpc.metrics
        self.retrier = (Retrier(env, retry, retry_stream, tracer,
                                metrics=self.metrics, name=name)
                        if retry is not None else None)

    def transact(self, port: int, request: RpcRequest,
                 idempotent: bool = True):
        """Process: one call — returns the OK reply, raises the matching
        :class:`~repro.errors.ReproError` for any other status."""
        if self.retrier is None:
            reply = yield from self.rpc.trans(port, request, self.timeout)
        else:
            if not idempotent:
                # Dedupe guard: fix the txid now so every retry is a
                # duplicate of the same transaction, not a new one.
                request.txid = self.rpc.new_txid()
            reply = yield from self.retrier.run(
                lambda: self.rpc.trans(port, request, self.timeout),
                op=f"{self.name}[{request.opcode}]",
                idempotent=idempotent, dedupe=not idempotent,
            )
        if not reply.ok:
            raise error_for_status(reply.status, reply.message)
        return reply
