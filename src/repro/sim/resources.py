"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — a counted resource with a FIFO wait queue. The
  reference Ethernet's medium (one transmission at a time) and each
  direction of the WAN gateway are ``Resource(capacity=1)``.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``; the
  RPC layer's per-port request queues and each disk arm's wakeups are
  Stores.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .core import Environment, Event

__all__ = ["Resource", "Store", "Request"]


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A resource with ``capacity`` concurrent users and a FIFO queue."""

    __slots__ = ("env", "capacity", "_users", "_queue")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of current users."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim the resource; yield the returned event to wait for it."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a previously granted request."""
        if request not in self._users:
            raise RuntimeError("releasing a request that does not hold the resource")
        self._users.discard(request)
        if self._queue:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt)

    def cancel(self, request: Request) -> None:
        """Withdraw a queued request that has not been granted yet."""
        try:
            self._queue.remove(request)
        except ValueError:
            raise RuntimeError("request not queued (already granted or cancelled)")


class Store:
    """An unbounded FIFO channel of items.

    ``put`` never blocks; ``get`` returns an event that fires with the
    oldest item (immediately if one is available).
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        return self._items.popleft() if self._items else None
