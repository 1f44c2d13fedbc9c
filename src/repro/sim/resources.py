"""Shared resources for simulation processes.

``Resource``
    A counted resource (e.g. a pool of CPU cores) with a FIFO wait
    queue.  Used via ``req = resource.request(); yield req; ...;
    resource.release(req)`` or the :meth:`Resource.acquire` helper.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

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

    def cancel(self) -> None:
        """Withdraw an un-granted request from the wait queue."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


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
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

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

    def acquire(self):
        """Context-manager style helper for use inside processes::

            with resource.acquire() as req:
                yield req
                ...
        """
        return _ResourceContext(self)

    def _trigger(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            request = self._queue.popleft()
            self._users.append(request)
            request.succeed(request)


class _ResourceContext:
    __slots__ = ("resource", "request")

    def __init__(self, resource: Resource):
        self.resource = resource
        self.request: Optional[Request] = None

    def __enter__(self) -> Request:
        self.request = self.resource.request()
        return self.request

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self.request is not None
        if self.request.processed:
            self.resource.release(self.request)
        else:
            self.request.cancel()
