"""Communication engines — trusted, cooperative network I/O (§5, §6.3).

"Each communication engine runs a separate kernel thread pinned on a
dedicated core, which executes its own asynchronous runtime, using
green threads to run multiple requests in parallel."  Engines share the
dispatcher-facing interface with compute engines (poll a task queue,
return contexts with outputs), but:

* they are trusted, so no sandbox is created;
* input data is untrusted and is sanitized before any network syscall
  is issued on its behalf (:func:`repro.net.http.sanitize_request`);
* only the CPU-side work (parsing, validation, copying) occupies the
  engine's core — network waits overlap across green threads.

A failed sanitization produces an error *item* in the response set
rather than failing the whole task, mirroring how the prototype returns
an error to the user when validation fails.
"""

from __future__ import annotations

from ..data.envelope import EnvelopeItem
from ..data.items import DataItem, DataSet
from ..functions.sdk import parse_http_request_item
from ..net.http import HttpRequest, SanitizationError, sanitize_request
from ..net.kv import parse_kv_request_item, sanitize_kv_request
from ..net.network import SimulatedNetwork
from ..sim.core import Environment
from ..sim.resources import Store
from .compute_engine import SHUTDOWN
from .task import Task, TaskOutcome

__all__ = ["CommunicationEngine", "RESPONSE_SET", "IDEMPOTENT_METHODS", "IDEMPOTENT_KV_OPS"]

RESPONSE_SET = "response"

# CPU cost of parsing/validating one request and assembling its
# response, charged serially on the engine core.
_PER_REQUEST_CPU_SECONDS = 20e-6
_CPU_BYTES_PER_SECOND = 5e9

# §6.1 fault tolerance: "Communication function failures are more
# complicated due to side effects.  Protocol specifications can help
# Dandelion decide which functions can be re-executed ... For example,
# HTTP PUT requests are idempotent."  Methods in this set may be
# retried transparently after a transient network failure.
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE"})

# Same §6.1 protocol reasoning for the TCP key-value protocol: reads
# and absolute writes can be blindly re-issued, increments cannot.
IDEMPOTENT_KV_OPS = frozenset({"get", "set", "delete"})


def _reply(item: DataItem, status: int, hex_field=None, payload: bytes = b"", **fields):
    """The response item for request ``item``: same name and key, the
    envelope ``{"status": status, **fields}`` plus ``payload`` unbuilt."""
    return EnvelopeItem(
        item.ident, {"status": status, **fields}, hex_field, payload, key=item.key
    )


class CommunicationEngine:
    """One communication engine bound to one CPU core."""

    def __init__(
        self,
        env: Environment,
        queue: Store,
        network: SimulatedNetwork,
        name: str = "comm-engine",
        max_green_threads: int = 256,
        failure_rng=None,
        transient_failure_rate: float = 0.0,
        max_retries: int = 2,
        throttle=None,
    ):
        self.env = env
        self.queue = queue
        self.network = network
        self.name = name
        self.max_green_threads = max_green_threads
        # Degraded-mode (limplock) model: stretches both the serial CPU
        # work and the network exchange time by the worker's shared
        # throttle multiplier (a slow NIC slows the wire, a slow core
        # slows parsing).  Healthy workers multiply by exactly 1.0 and
        # schedule no extra events.
        self._throttle = throttle
        self.tasks_executed = 0
        self.busy_seconds = 0.0
        self.active_green_threads = 0
        self.retries_performed = 0
        self.exchange_timeouts = 0
        self.handler_faults = 0
        self.stopped = env.event()
        self._failure_rng = failure_rng
        self._transient_failure_rate = transient_failure_rate
        self._max_retries = max_retries
        # Identity-keyed memo cache for the hot HTTP path.  Workloads
        # re-send the same request bytes, so the parse/sanitize work is
        # done once per distinct object.  Entries pin the keyed object,
        # which keeps recycled ids from ever aliasing a dead one; it is
        # bounded, so adversarial traffic degrades to the slow path.
        self._request_cache: dict[int, tuple] = {}
        self.process = env.process(self._run())

    def _cpu_seconds(self, task: Task) -> float:
        items = sum(len(s) for s in task.input_sets)
        return items * _PER_REQUEST_CPU_SECONDS + task.input_bytes / _CPU_BYTES_PER_SECOND

    def _run(self):
        while True:
            task = yield self.queue.get()
            if task is SHUTDOWN:
                break
            # Serialized CPU work on this core: parse and validate.
            cpu = self._cpu_seconds(task)
            if self._throttle is not None:
                cpu *= self._throttle.multiplier
            yield self.env.timeout(cpu)
            self.busy_seconds += cpu
            self.tasks_executed += 1
            # The network exchange itself runs as a green thread so the
            # engine can pick up further tasks while I/O is in flight.
            self.env.process(self._handle(task, cpu))
        self.stopped.succeed(self.name)

    def _handle(self, task: Task, cpu_seconds: float):
        self.active_green_threads += 1
        try:
            handler = self._PROTOCOL_HANDLERS.get(task.protocol)
            responses = DataSet(RESPONSE_SET)
            items = [item for data_set in task.input_sets for item in data_set]
            if handler is None:
                handler = type(self)._unknown_protocol_item
            if len(items) == 1:
                # Single-request fast path (the common case): run the
                # exchange inline in this green thread instead of
                # spawning a sub-process per item.
                response_item = yield from handler(
                    self, items[0], task.protocol, task.timeout
                )
                responses.add(response_item)
            else:
                exchanges = [
                    self.env.process(handler(self, item, task.protocol, task.timeout))
                    for item in items
                ]
                for exchange in exchanges:
                    response_item = yield exchange
                    responses.add(response_item)
            outcome = TaskOutcome(
                success=True,
                outputs=[responses],
                service_seconds=cpu_seconds,
            )
        except Exception as exc:  # noqa: BLE001 - any handler bug must fail the task
            # A raising handler must fail the task's completion: leaving
            # it pending would strand the dispatcher process waiting on
            # it and deadlock the whole simulation.  Handler bugs are
            # deterministic, so the failure is not marked retryable.
            self.handler_faults += 1
            outcome = TaskOutcome(
                success=False,
                error=exc,
                service_seconds=cpu_seconds,
                transient=False,
            )
        finally:
            self.active_green_threads -= 1
        task.completion.succeed(outcome)

    def _stretched(self, exchange):
        """Drive one network exchange, stretched by the worker's limp factor.

        A limping NIC makes the whole wire exchange proportionally
        slower: the extra wait is scheduled *after* the real exchange so
        the stretch composes with whatever the network model charged.
        Healthy workers take the exact pass-through path (no extra
        events).
        """
        throttle = self._throttle
        if throttle is None or throttle.multiplier <= 1.0:
            return (yield from exchange)
        started = self.env.now
        result = yield from exchange
        extra = (throttle.multiplier - 1.0) * (self.env.now - started)
        if extra > 0:
            yield self.env.timeout(extra)
        return result

    def _carry(self, item, start, reply, retryable, timeout, what, failure_rate=0.0):
        """Run the exchange ``start()`` under the retry budget and return
        ``reply(result)``, or the error item that gives up.

        Transient network failures (modelled by the injection knobs)
        and exchanges that exceed ``timeout`` are retried transparently
        when the protocol marks the request idempotent (``retryable``);
        otherwise the failure surfaces to the user as an error item,
        since blind re-issue could duplicate side effects (§6.1).
        """
        attempts = 0
        while True:
            if (
                failure_rate > 0
                and self._failure_rng is not None
                and self._failure_rng.bernoulli(failure_rate)
            ):
                # The connection dropped mid-exchange: charge a round
                # trip, then decide whether the request may be retried.
                yield self.env.timeout(self.network.latency.round_trip_seconds)
                status, error = 503, "connection reset"
            elif timeout is None:
                return reply((yield from self._stretched(start())))
            else:
                # Race the exchange against the task deadline (§6.1).
                # The exchange runs as its own process so an overdue
                # network round trip can be abandoned mid-flight; its
                # eventual result, if any, is discarded.  The limp
                # stretch runs inside the raced process, so a limping
                # NIC's slow exchanges hit the deadline like real ones.
                exchange = self.env.process(self._stretched(start()))
                yield self.env.any_of([exchange, self.env.timeout(timeout)])
                if exchange.processed:
                    return reply(exchange.value)
                self.exchange_timeouts += 1
                status, error = 504, f"{what} exceeded {timeout}s deadline"
            if not (retryable and attempts < self._max_retries):
                return _reply(item, status, error=error, retried=attempts, idempotent=retryable)
            attempts += 1
            self.retries_performed += 1

    def _one_exchange(self, item: DataItem, protocol: str = "http", timeout=None):
        """Carry one request item through sanitization and the network;
        only :data:`IDEMPOTENT_METHODS` may be re-issued."""
        data = item.data
        cached = self._request_cache.get(id(data))
        if cached is None or cached[0] is not data:
            try:
                envelope = parse_http_request_item(data)
                request = HttpRequest(
                    envelope["method"], envelope["url"], envelope["headers"], envelope["body"]
                )
                cached = (data, sanitize_request(request), None)
            except (ValueError, SanitizationError) as exc:
                cached = (data, None, str(exc))
            if len(self._request_cache) < 512:
                self._request_cache[id(data)] = cached
        _, request, rejection = cached
        if request is None:
            # Same bytes, same sanitization verdict.
            return _reply(item, 400, error=rejection)
        response = yield from self._carry(
            item, lambda: self.network.perform(request),
            lambda r: _reply(item, r.status, "body_hex", r.body, reason=r.reason),
            request.method in IDEMPOTENT_METHODS, timeout, "exchange",
            self._transient_failure_rate,
        )
        return response

    def _unknown_protocol_item(self, item: DataItem, protocol: str, timeout=None):
        """Yieldless placeholder exchange for unsupported protocols."""
        if False:  # pragma: no cover - makes this a generator
            yield None
        return _reply(item, 400, error=f"unsupported protocol {protocol!r}")

    def _kv_exchange(self, item: DataItem, protocol: str = "kv", timeout=None):
        """Carry one key-value request through sanitization and the
        network (§4.1's TCP text-protocol communication function).

        Reads and absolute writes (:data:`IDEMPOTENT_KV_OPS`) may be
        re-issued; an overdue ``incr`` surfaces an error item (a blind
        re-issue could double-count, §6.1).
        """
        try:
            envelope = sanitize_kv_request(parse_kv_request_item(item.data))
        except (ValueError, SanitizationError) as exc:
            return _reply(item, 400, error=str(exc))
        host, op, key, value = (envelope[name] for name in ("host", "op", "key", "value"))
        response = yield from self._carry(
            item, lambda: self.network.perform_kv(host, op, key, value),
            lambda r: _reply(item, r[0], "value_hex", r[1], reason=r[2]),
            op in IDEMPOTENT_KV_OPS, timeout, "kv exchange",
        )
        return response

    _PROTOCOL_HANDLERS = {
        "http": _one_exchange,
        "kv": _kv_exchange,
    }
