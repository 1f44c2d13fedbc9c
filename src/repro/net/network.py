"""Simulated data-centre network and service registry.

External services (cloud storage, auth, LLM inference, databases) run
in-process but are reached through a latency-modelled network, so that
communication functions experience realistic request/response timing
while producing real bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..sim.core import Environment
from .http import HttpRequest, HttpResponse

__all__ = ["LatencyModel", "SimulatedNetwork", "HttpService"]


@dataclass(frozen=True)
class LatencyModel:
    """Two-parameter intra-DC network model: RTT plus bandwidth."""

    round_trip_seconds: float = 200e-6       # same-AZ TCP round trip
    bytes_per_second: float = 1.25e9         # ~10 Gbit/s

    def transfer_seconds(self, payload_bytes: int) -> float:
        return payload_bytes / self.bytes_per_second

    def request_seconds(self, request: HttpRequest) -> float:
        """Time for the request to reach the service (half RTT + send)."""
        return self.round_trip_seconds / 2 + self.transfer_seconds(request.size)

    def response_seconds(self, response: HttpResponse) -> float:
        return self.round_trip_seconds / 2 + self.transfer_seconds(response.size)


class HttpService:
    """Base class for simulated remote services.

    Subclasses implement :meth:`handle` (the functional behaviour —
    real request in, real response out) and may override
    :meth:`service_seconds` (the modelled server-side processing time).
    """

    __slots__ = ("host", "requests_served")

    def __init__(self, host: str):
        if not host:
            raise ValueError("service host must be non-empty")
        self.host = host
        self.requests_served = 0

    def handle(self, request: HttpRequest) -> HttpResponse:
        raise NotImplementedError

    def service_seconds(self, request: HttpRequest, response: HttpResponse) -> float:
        """Modelled processing time; default scales with response size."""
        return 50e-6 + response.size / 5e9

    def _count(self) -> None:
        self.requests_served += 1


class SimulatedNetwork:
    """Routes HTTP requests to registered services with modelled latency.

    An exchange is a scheduled call per leg: request, service, response.
    """

    __slots__ = ("env", "latency", "_services", "requests_sent", "bytes_sent", "bytes_received")

    def __init__(self, env: Environment, latency: LatencyModel = LatencyModel()):
        self.env = env
        self.latency = latency
        self._services: dict[str, HttpService] = {}
        self.requests_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def register(self, service: HttpService) -> None:
        if service.host in self._services:
            raise ValueError(f"host {service.host!r} already registered")
        self._services[service.host] = service

    @property
    def hosts(self) -> list[str]:
        return sorted(self._services)

    def perform(self, request: HttpRequest, on_done: Callable[[HttpResponse], None]) -> None:
        """Carry out one HTTP exchange; ``on_done(response)`` is called
        when the response has arrived in virtual time.

        Unknown hosts return a 502 response after one RTT (connection
        refused), mirroring how the real communication function surfaces
        unreachable services as errors rather than crashing the engine.

        Services that define ``serve(request, on_done)`` (a Dandelion
        worker frontend serving a full invocation) are driven in virtual
        time instead of the synchronous ``handle`` + fixed service-time
        model — this is what lets compositions "spawn new compositions
        dynamically through Dandelion's HTTP interface" (§4.1).
        """
        self.requests_sent += 1
        self.bytes_sent += request.size
        service = self._services.get(request.host)
        if service is None:
            response = HttpResponse(status=502, reason=f"no route to host {request.host!r}")
            self.env.call_later(self.latency.round_trip_seconds, on_done, response)
            return
        self.env.call_later(
            self.latency.request_seconds(request), self._serve, service, request, on_done
        )

    def _serve(self, service: HttpService, request: HttpRequest, on_done) -> None:
        call_later = self.env.call_later
        serve = getattr(service, "serve", None)
        if serve is not None:
            # The service starts one hop after the request arrives, and
            # its response leaves one hop after it answers.
            served = partial(call_later, 0.0, self._served, service, on_done)
            call_later(0.0, serve, request, served)
            return
        response = service.handle(request)
        service._count()
        call_later(
            service.service_seconds(request, response), call_later,
            self.latency.response_seconds(response),
            self._received, response.size, response, on_done,
        )

    def _served(self, service: HttpService, on_done, response: HttpResponse) -> None:
        service._count()
        self.env.call_later(
            self.latency.response_seconds(response),
            self._received, response.size, response, on_done,
        )

    def _received(self, size: int, result, on_done) -> None:
        self.bytes_received += size
        on_done(result)
