"""Core pools.

``Resource``
    Counted slots with a FIFO wait queue: ``req = resource.request()``
    is born processed when a slot is free, else fires when granted;
    ``resource.release(req)`` frees the slot.
``FifoCores``
    Run-to-completion cores as a recursion, no event heap: a request
    arriving at ``t`` starts at ``max(t, earliest free core)``.  Admit in
    arrival order; ``env.timeout_at`` turns a completion into an event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from .core import Environment, Event, SimulationError
from .core import _PROCESSED

__all__ = ["FifoCores", "Resource", "Request"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        if not resource._queue and len(resource._users) < resource._capacity:
            # Fast path: a slot is free and nobody is ahead of us, so
            # the claim is granted synchronously — the requester
            # continues without a trip through the event heap.
            resource._users.append(self)
            self._value = self
            self._state = _PROCESSED
            return
        resource._queue.append(self)
        resource._trigger()


class Resource:
    """A counted resource with FIFO granting.

    ``capacity`` slots exist; requests beyond capacity wait in arrival
    order.  ``count`` reports slots currently held.
    """

    __slots__ = ("env", "_capacity", "_queue", "_users")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self._capacity = capacity
        self._queue: deque[Request] = deque()
        self._users: list[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that was never granted") from None
        self._trigger()

    def _trigger(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            request = self._queue.popleft()
            self._users.append(request)
            request.succeed(request)


class FifoCores:
    """``cores`` run-to-completion cores, granted in arrival order."""

    __slots__ = ("cores", "_free_at")

    def __init__(self, cores: int):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.cores = cores
        self._free_at: list[float] = []  # a heap of at most `cores` completion times

    def admit(self, arrival: float, service_seconds: float) -> float:
        """Admit a request arriving at ``arrival``; return its completion time."""
        free_at = self._free_at
        start = arrival
        if len(free_at) == self.cores:
            start = max(start, heappop(free_at))
        completion = start + service_seconds
        heappush(free_at, completion)
        return completion
