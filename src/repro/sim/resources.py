"""Shared resources for simulation processes.

``Resource``
    A counted resource (e.g. a pool of CPU cores) with a FIFO wait
    queue.  Used via ``req = resource.request(); yield req; ...;
    resource.release(req)``.
"""

from __future__ import annotations

from collections import deque

from .core import Environment, Event, SimulationError
from .core import _PROCESSED

__all__ = ["Resource", "Request"]


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

