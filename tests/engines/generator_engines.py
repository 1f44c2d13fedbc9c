"""Reference engines for ``test_engine_equivalence``.

The generator formulation of the engines: each engine is a simulation
`Process` reading its group's `Store`, a communication task runs as a
`_handle` process with one more process per request item, a deadline is
an `AnyOf` over a raced exchange process and a `Timeout`, and a shrink
retires an engine through a `SHUTDOWN` sentinel and an `AnyOf` over the
group's stop events.

It left the product when the engines became callback machines; it stays
here so they are checked live against it on random task mixes.  The
code is the former `engines/compute_engine.py`, `engines/comm_engine.py`,
`engines/group.py` and `sim.resources.Store`, unchanged apart from:

* `SimulatedNetwork.perform`/`perform_kv` are callback chains now, so
  their generator forms are carried here as `perform`/`perform_kv`
  (without the frontend-as-service branch, which the property does not
  draw);
* the kernel's `Event.succeed(delay=)`, which only the compute engine
  used, is `succeed_later` here;
* `Task` gains the `completion` event the product's no longer carries;
* options and fields that nothing read are gone with the product's
  (`batch_guard`, `max_green_threads`, `enqueued_at`, `queue_samples`,
  `TaskOutcome.breakdown`), the retry bound is the product's
  `MAX_RETRIES` constant, and comments are shortened.
"""

from collections import deque
from heapq import heappush
from typing import Any, Callable

from repro.data.envelope import EnvelopeItem
from repro.data.items import DataItem, DataSet
from repro.engines import task as product_task
from repro.engines.comm_engine import MAX_RETRIES
from repro.engines.task import TaskOutcome
from repro.errors import FunctionFailure, FunctionTimeout, MemoryLimitExceeded
from repro.functions.sdk import parse_http_request_item
from repro.net.http import HttpRequest, HttpResponse, SanitizationError, sanitize_request
from repro.net.kv import parse_kv_request_item, sanitize_kv_request
from repro.sim.core import _PENDING, _PROCESSED, _TRIGGERED, Environment, Event, SimulationError

RESPONSE_SET = "response"
_PER_REQUEST_CPU_SECONDS = 20e-6
_CPU_BYTES_PER_SECOND = 5e9
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE"})
IDEMPOTENT_KV_OPS = frozenset({"get", "set", "delete"})

# Sentinel pushed onto a queue to retire exactly one engine.
SHUTDOWN = object()


class Task(product_task.Task):
    """The product's task with a ``completion`` event (instance dict)."""


def succeed_later(event: Event, value: Any = None, delay: float = 0.0) -> Event:
    """The former ``event.succeed(value, delay=delay)``: schedule the
    occurrence ``delay`` virtual seconds from now."""
    if event._state != _PENDING:
        raise SimulationError(f"{event!r} already triggered")
    if delay < 0:
        raise SimulationError(f"negative delay {delay}")
    event._ok = True
    event._value = value
    event._state = _TRIGGERED
    env = event.env
    seq = env._seq
    env._seq = seq + 1
    heappush(env._queue, (env._now + delay, seq, event))
    return event


# -- sim.resources.Store ------------------------------------------------------------


class Store:
    """A FIFO buffer with blocking ``get``/``put``.

    ``capacity`` bounds the number of stored items (``inf`` by
    default).  ``get`` returns an event carrying the item.
    """

    __slots__ = ("env", "capacity", "_items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list[Any]:
        """Snapshot of buffered items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> Event:
        """Add ``item``; the event fires once the item is accepted."""
        event = Event(self.env)
        if not self._putters and len(self) < self.capacity:
            # Fast path: the item is accepted immediately, so the put
            # event is born processed — no heap round trip.  Waiting
            # getters are still woken through the heap (FIFO order).
            self._push_item(item)
            event._value = item
            event._state = _PROCESSED
            if self._getters:
                self._dispatch()
            return event
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self) -> Event:
        """Take the oldest item; the event fires carrying the item."""
        event = Event(self.env)
        if not self._getters and len(self):
            # Fast path: an item is ready and nobody is ahead of us —
            # hand it over synchronously.
            event._value = self._pop_item()
            event._state = _PROCESSED
            if self._putters:
                self._dispatch()
            return event
        self._getters.append(event)
        self._dispatch()
        return event

    def _pop_item(self) -> Any:
        return self._items.popleft()

    def _push_item(self, item: Any) -> None:
        self._items.append(item)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self._items) < self.capacity:
                event, item = self._putters.popleft()
                self._push_item(item)
                event.succeed(item)
                progressed = True
            while self._getters and self._items:
                event = self._getters.popleft()
                event.succeed(self._pop_item())
                progressed = True


# -- SimulatedNetwork.perform / perform_kv --------------------------------------------


def perform(network, request: HttpRequest):
    network.requests_sent += 1
    network.bytes_sent += request.size
    service = network._services.get(request.host)
    if service is None:
        yield network.env.timeout(network.latency.round_trip_seconds)
        return HttpResponse(status=502, reason=f"no route to host {request.host!r}")
    yield network.env.timeout(network.latency.request_seconds(request))
    response = service.handle(request)
    service._count()
    yield network.env.timeout(service.service_seconds(request, response))
    yield network.env.timeout(network.latency.response_seconds(response))
    network.bytes_received += response.size
    return response


def perform_kv(network, host: str, op: str, key: str, value: bytes):
    network.requests_sent += 1
    request_bytes = len(key) + len(value) + 16
    network.bytes_sent += request_bytes
    service = network._services.get(host)
    handle_kv = getattr(service, "handle_kv", None)
    if handle_kv is None:
        yield network.env.timeout(network.latency.round_trip_seconds)
        return 502, b"", f"no kv service at host {host!r}"
    yield network.env.timeout(
        network.latency.round_trip_seconds / 2
        + network.latency.transfer_seconds(request_bytes)
    )
    status, response_value, reason = handle_kv(op, key, value)
    service._count()
    yield network.env.timeout(service.service_seconds(len(response_value)))
    yield network.env.timeout(
        network.latency.round_trip_seconds / 2
        + network.latency.transfer_seconds(len(response_value) + 16)
    )
    network.bytes_received += len(response_value) + 16
    return status, response_value, reason


# -- engines/compute_engine.py ----------------------------------------------------


class ComputeEngine:
    """One compute engine bound to one CPU core."""

    def __init__(
        self,
        env,
        queue: Store,
        backend,
        name: str = "compute-engine",
        failure_rng=None,
        transient_failure_rate: float = 0.0,
        throttle=None,
    ):
        self.env = env
        self.queue = queue
        self.backend = backend
        self.name = name
        self.tasks_executed = 0
        self.busy_seconds = 0.0
        self.stopped = env.event()
        self._failure_rng = failure_rng
        self._transient_failure_rate = transient_failure_rate
        self._throttle = throttle
        self.process = env.process(self._run())

    def _run(self):
        while True:
            task = yield self.queue.get()
            if task is SHUTDOWN:
                break
            outcome = self._execute(task)
            service = outcome.service_seconds
            if self._throttle is not None:
                service *= self._throttle.multiplier
            if service > 0:
                # Fire the completion directly at now + service and
                # stay busy by waiting on it — one event instead of
                # a Timeout followed by an immediate succeed.
                succeed_later(task.completion, outcome, service)
                yield task.completion
                self.busy_seconds += service
                self.tasks_executed += 1
            else:
                self.busy_seconds += service
                self.tasks_executed += 1
                task.completion.succeed(outcome)
            del task, outcome  # an idle engine keeps no invocation's data alive
        self.stopped.succeed(self.name)

    def _execute(self, task: Task) -> TaskOutcome:
        if (
            self._failure_rng is not None
            and self._transient_failure_rate > 0
            and self._failure_rng.bernoulli(self._transient_failure_rate)
        ):
            creation = self.backend.creation_seconds(task.binary, task.cached)
            return TaskOutcome(
                success=False,
                error=RuntimeError("sandbox crashed (injected transient fault)"),
                service_seconds=creation,
                transient=True,
            )
        try:
            execution = self.backend.execute(
                task.binary,
                task.input_sets,
                task.output_set_names,
                cached=task.cached,
                timeout=task.timeout,
                remap_input=task.zero_copy,
            )
        except (FunctionFailure, FunctionTimeout, MemoryLimitExceeded) as exc:
            creation = self.backend.creation_seconds(task.binary, task.cached)
            return TaskOutcome(
                success=False, error=exc, service_seconds=creation, transient=False
            )
        return TaskOutcome(
            success=True, outputs=execution.outputs, service_seconds=execution.total_seconds
        )


# -- engines/comm_engine.py ---------------------------------------------------------


def _reply(item: DataItem, status: int, hex_field=None, payload: bytes = b"", **fields):
    return EnvelopeItem(
        item.ident, {"status": status, **fields}, hex_field, payload, key=item.key
    )


class CommunicationEngine:
    """One communication engine bound to one CPU core."""

    def __init__(
        self,
        env,
        queue: Store,
        network,
        name: str = "comm-engine",
        failure_rng=None,
        transient_failure_rate: float = 0.0,
        throttle=None,
    ):
        self.env = env
        self.queue = queue
        self.network = network
        self.name = name
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
            del task  # an idle engine keeps no invocation's data alive
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
        attempts = 0
        while True:
            if (
                failure_rate > 0
                and self._failure_rng is not None
                and self._failure_rng.bernoulli(failure_rate)
            ):
                yield self.env.timeout(self.network.latency.round_trip_seconds)
                status, error = 503, "connection reset"
            elif timeout is None:
                return reply((yield from self._stretched(start())))
            else:
                exchange = self.env.process(self._stretched(start()))
                yield self.env.any_of([exchange, self.env.timeout(timeout)])
                if exchange.processed:
                    return reply(exchange.value)
                self.exchange_timeouts += 1
                status, error = 504, f"{what} exceeded {timeout}s deadline"
            if not (retryable and attempts < MAX_RETRIES):
                return _reply(item, status, error=error, retried=attempts, idempotent=retryable)
            attempts += 1
            self.retries_performed += 1

    def _one_exchange(self, item: DataItem, protocol: str = "http", timeout=None):
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
            return _reply(item, 400, error=rejection)
        response = yield from self._carry(
            item, lambda: perform(self.network, request),
            lambda r: _reply(item, r.status, "body_hex", r.body, reason=r.reason),
            request.method in IDEMPOTENT_METHODS, timeout, "exchange",
            self._transient_failure_rate,
        )
        return response

    def _unknown_protocol_item(self, item: DataItem, protocol: str, timeout=None):
        if False:  # pragma: no cover - makes this a generator
            yield None
        return _reply(item, 400, error=f"unsupported protocol {protocol!r}")

    def _kv_exchange(self, item: DataItem, protocol: str = "kv", timeout=None):
        try:
            envelope = sanitize_kv_request(parse_kv_request_item(item.data))
        except (ValueError, SanitizationError) as exc:
            return _reply(item, 400, error=str(exc))
        host, op, key, value = (envelope[name] for name in ("host", "op", "key", "value"))
        response = yield from self._carry(
            item, lambda: perform_kv(self.network, host, op, key, value),
            lambda r: _reply(item, r[0], "value_hex", r[1], reason=r[2]),
            op in IDEMPOTENT_KV_OPS, timeout, "kv exchange",
        )
        return response

    _PROTOCOL_HANDLERS = {
        "http": _one_exchange,
        "kv": _kv_exchange,
    }


# -- engines/group.py ---------------------------------------------------------------


class EngineGroup:
    """A resizable pool of same-type engines sharing one task queue."""

    def __init__(
        self,
        env,
        kind: str,
        engine_factory: Callable[[Store, str], object],
        initial_count: int = 1,
    ):
        self.env = env
        self.kind = kind
        self.queue = Store(env)
        self._engine_factory = engine_factory
        self._engines: list = []
        self._next_engine_id = 0
        self._pending_shutdowns = 0
        self._retired_tasks_executed = 0
        self._retired_busy_seconds = 0.0
        for _ in range(initial_count):
            self._start_engine()

    @property
    def engine_count(self) -> int:
        return len(self._engines) - self._pending_shutdowns

    @property
    def engines(self) -> list:
        return list(self._engines)

    def _start_engine(self) -> None:
        name = f"{self.kind}-engine-{self._next_engine_id}"
        self._next_engine_id += 1
        engine = self._engine_factory(self.queue, name)
        self._engines.append(engine)

    def grow(self) -> None:
        self._start_engine()

    def shrink(self):
        if self.engine_count <= 0:
            raise ValueError(f"no {self.kind} engine left to retire")
        self._pending_shutdowns += 1
        self.queue.put(SHUTDOWN)
        done = self.env.event()
        self.env.process(self._await_retirement(done))
        return done

    def _await_retirement(self, done):
        # Any engine may consume the sentinel; wait until one reports.
        stops = [engine.stopped for engine in self._engines]
        yield self.env.any_of(stops)
        retired = [engine for engine in self._engines if engine.stopped.triggered]
        for engine in retired:
            if engine in self._engines:
                self._engines.remove(engine)
                self._pending_shutdowns -= 1
                self._retired_tasks_executed += engine.tasks_executed
                self._retired_busy_seconds += engine.busy_seconds
        done.succeed()

    def submit(self, task) -> None:
        self.queue.put(task)

    def sample_queue(self) -> int:
        return len(self.queue)

    @property
    def tasks_executed(self) -> int:
        live = sum(engine.tasks_executed for engine in self._engines)
        return live + self._retired_tasks_executed

    @property
    def busy_seconds(self) -> float:
        live = sum(engine.busy_seconds for engine in self._engines)
        return live + self._retired_busy_seconds
