"""HTTP frontend — client-facing entry point of a worker node (§5).

"The frontend manages client communication, handling requests for
composition/function registration and invocation.  It forwards these
requests to the dispatcher and serializes and returns the final result
to the client."

Registration is programmatic (:meth:`Frontend.register_function`,
:meth:`Frontend.register_composition`).  Invocation is programmatic too,
and also served over HTTP (POST ``/v1/invoke/<name>``): registered on a
:class:`~repro.net.network.SimulatedNetwork`, a worker is reachable by
communication functions, which is how compositions "spawn new
compositions dynamically through Dandelion's HTTP interface" (§4.1);
``examples/dynamic_spawn.py`` shows it.
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
    """Client entry point: registration and invocation.

    As an :class:`HttpService` it answers through :meth:`serve` only.
    """

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
        composition = composition_or_source
        if not isinstance(composition, Composition):
            composition = parse_composition(composition, library=self.registry.compositions)
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

    # -- HTTP API -----------------------------------------------------------------

    def serve(self, request: HttpRequest, on_done: Callable[[HttpResponse], None]) -> None:
        """Serve ``request`` in virtual time, then ``on_done(response)``.

        Registered on a :class:`SimulatedNetwork`, the worker is itself
        reachable over HTTP, so compositions can spawn compositions
        (§4.1): a communication function POSTs to ``/v1/invoke/<name>``
        and receives the nested invocation's outputs.  Anything else is
        a 404.
        """
        if not (request.method == "POST" and "/v1/invoke/" in request.path):
            on_done(HttpResponse(status=404, reason="unknown endpoint"))
            return
        name = request.path.split("/v1/invoke/", 1)[1].split("?")[0]
        if not self.registry.has_composition(name):
            on_done(HttpResponse(status=404, reason=f"unknown composition {name!r}"))
            return
        try:
            payload = json.loads(request.body.decode("utf-8")) if request.body else {}
            inputs = {
                key: DataSet(key, [DataItem(key, value.encode("utf-8"))])
                for key, value in payload.items()
            }
        except (ValueError, AttributeError):
            # Not JSON, or not an object of strings.
            on_done(HttpResponse(status=400, reason="invalid JSON body"))
            return
        # The reply is serialized one hop after the result leaves the
        # frontend.
        self.start(
            name, inputs,
            partial(self.env.call_later, 0.0, self._answer, on_done, self.serialize_result),
        )

    @staticmethod
    def _answer(on_done, respond, value) -> None:
        on_done(respond(value))

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
