"""HTTP frontend — client-facing entry point of a worker node (§5).

"The frontend manages client communication, handling requests for
composition/function registration and invocation.  It forwards these
requests to the dispatcher and serializes and returns the final result
to the client."

The frontend exposes both a programmatic API (used by examples and
experiments) and an HTTP-message API (POST ``/v1/functions``,
``/v1/compositions``, ``/v1/invoke/<name>``) so a worker can itself be
registered as an :class:`~repro.net.network.HttpService` — which is how
compositions "spawn new compositions dynamically through Dandelion's
HTTP interface" (§4.1).
"""

from __future__ import annotations

import json
from functools import partial
from typing import Callable, Optional

from ..composition.dsl import parse_composition
from ..composition.graph import Composition
from ..composition.registry import FunctionBinary, Registry
from ..data.items import DataItem, DataSet, is_data_set
from ..dispatcher.dispatcher import Dispatcher, InvocationResult
from ..net.http import HttpRequest, HttpResponse
from ..net.network import HttpService
from ..sim.core import Environment

__all__ = ["Frontend"]

# Modelled CPU cost of HTTP parsing/serialization at the frontend.
_FRONTEND_OVERHEAD_SECONDS = 30e-6


class Frontend(HttpService):
    """Client entry point: registration and invocation."""

    def __init__(self, env: Environment, registry: Registry, dispatcher: Dispatcher, host: str = "dandelion.internal"):
        super().__init__(host)
        self.env = env
        self.registry = registry
        self.dispatcher = dispatcher

    # -- programmatic API ---------------------------------------------------

    def register_function(
        self, binary: FunctionBinary, verify: Optional[str] = None
    ) -> None:
        """Register a function; ``verify="warn"|"strict"`` runs the
        static purity verifier at registration time (§4.1)."""
        self.registry.register_function(binary, verify=verify)

    def register_composition(
        self, composition_or_source, verify: Optional[str] = None
    ) -> Composition:
        """Register a Composition object or composition-language source;
        ``verify="warn"|"strict"`` runs the whole-composition
        analyzer (races, contracts, cost) at registration time."""
        if isinstance(composition_or_source, Composition):
            composition = composition_or_source
        else:
            composition = parse_composition(
                composition_or_source, library=self.registry.compositions
            )
        self.registry.register_composition(composition, verify=verify)
        return composition

    def invoke(self, composition_name: str, inputs: dict):
        """Invoke a composition; returns an event → InvocationResult."""
        done = self.env.event()
        self.start(composition_name, inputs, done.succeed)
        return done

    def start(self, composition_name: str, inputs: dict, on_done: Callable[[InvocationResult], None]) -> None:
        """Invoke a composition; ``on_done(result)`` is called when the
        reply leaves the frontend.  An unknown name raises here.

        ``inputs`` maps external input names to DataSets, lists of
        DataItems, or raw bytes (wrapped as a single-item set).
        """
        self.registry.composition(composition_name)
        normalized = {
            name: self._as_data_set(name, value) for name, value in inputs.items()
        }
        # Two timed calls, request parsing and reply serialization,
        # with the dispatcher in between.
        call_later = self.env.call_later
        call_later(
            _FRONTEND_OVERHEAD_SECONDS,
            self.dispatcher.start,
            composition_name,
            normalized,
            partial(call_later, _FRONTEND_OVERHEAD_SECONDS, on_done),
        )

    @staticmethod
    def _as_data_set(name: str, value) -> DataSet:
        if is_data_set(value):
            return value
        if isinstance(value, (bytes, bytearray)):
            return DataSet(name, [DataItem(name, bytes(value))])
        if isinstance(value, str):
            return DataSet(name, [DataItem(name, value.encode("utf-8"))])
        return DataSet(name, list(value))

    # -- HTTP-message API -------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve registration/invocation over HTTP (synchronous paths).

        Invocation over HTTP is served through
        :meth:`handle_invoke_process` because it must wait on the
        dispatcher; plain ``handle`` only accepts registrations and
        returns 202 for invocations (poll-style), keeping the
        HttpService contract synchronous.
        """
        if request.method == "POST" and request.path.startswith("/v1/compositions"):
            verify = None
            if "?" in request.path:
                query = request.path.split("?", 1)[1]
                for pair in query.split("&"):
                    if pair.startswith("verify="):
                        verify = pair.split("=", 1)[1] or None
            try:
                composition = self.register_composition(
                    request.body.decode("utf-8"), verify=verify
                )
            except Exception as exc:  # noqa: BLE001 - surface as HTTP error
                return HttpResponse(status=400, reason=str(exc))
            return HttpResponse(status=201, body=composition.name.encode())
        if request.method == "POST" and request.path.startswith("/v1/invoke/"):
            name = request.path.split("/v1/invoke/", 1)[1].split("?")[0]
            if not self.registry.has_composition(name):
                return HttpResponse(status=404, reason=f"unknown composition {name!r}")
            return HttpResponse(status=202, body=b"accepted")
        return HttpResponse(status=404, reason="unknown endpoint")

    def handle_process(self, request: HttpRequest):
        """Generator handler driving full invocations in virtual time.

        Registering the frontend on a :class:`SimulatedNetwork` makes
        the worker itself reachable over HTTP, so compositions can
        spawn other compositions dynamically (§4.1): a communication
        function POSTs to ``/v1/invoke/<name>`` and receives the nested
        invocation's outputs.
        """
        if request.method == "POST" and "/v1/invoke/" in request.path:
            response = yield from self.handle_invoke_process(request)
            return response
        yield self.env.timeout(_FRONTEND_OVERHEAD_SECONDS)
        return self.handle(request)

    def handle_invoke_process(self, request: HttpRequest):
        """Simulation process serving a full HTTP invocation round trip."""
        name = request.path.split("/v1/invoke/", 1)[1].split("?")[0]
        if not self.registry.has_composition(name):
            return HttpResponse(status=404, reason=f"unknown composition {name!r}")
        try:
            payload = json.loads(request.body.decode("utf-8")) if request.body else {}
        except ValueError:
            return HttpResponse(status=400, reason="invalid JSON body")
        inputs = {
            key: DataSet(key, [DataItem(key, value.encode("utf-8"))])
            for key, value in payload.items()
        }
        result = yield self.invoke(name, inputs)
        return self.serialize_result(result)

    @staticmethod
    def serialize_result(result: InvocationResult) -> HttpResponse:
        if not result.ok:
            return HttpResponse(status=500, reason=str(result.error))
        body = json.dumps(
            {
                name: {item.ident: item.data.hex() for item in data_set}
                for name, data_set in result.outputs.items()
            }
        ).encode()
        return HttpResponse(status=200, body=body)
