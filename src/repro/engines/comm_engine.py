"""Communication engines — trusted, cooperative network I/O (§5, §6.3).

"Each communication engine runs a separate kernel thread pinned on a
dedicated core, which executes its own asynchronous runtime, using
green threads to run multiple requests in parallel."  Engines share the
dispatcher-facing interface with compute engines (take tasks from
their group's queue, report outcomes with output sets), but:

* they are trusted, so no sandbox is created;
* input data is untrusted and is sanitized before any network syscall
  is issued on its behalf (:func:`repro.net.http.sanitize_request`);
* only the CPU-side work (parsing, validation, copying) occupies the
  engine's core — network waits overlap across green threads.

A green thread is a chain of scheduled calls: a :class:`_GreenThread`
per task collects the responses of an :class:`_Exchange` per request
item.

A failed sanitization produces an error *item* in the response set
rather than failing the whole task, mirroring how the prototype returns
an error to the user when validation fails.
"""

from __future__ import annotations

from functools import partial

from ..data.envelope import EnvelopeItem
from ..data.items import DataItem, DataSet
from ..functions.sdk import parse_http_request_item
from ..net.http import HttpRequest, SanitizationError, sanitize_request
from ..net.kv import parse_kv_request_item, sanitize_kv_request
from ..net.network import SimulatedNetwork
from ..sim.core import Environment
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

# Re-issues of an idempotent request after a transient network failure
# or a missed exchange deadline.
MAX_RETRIES = 2

# A raced exchange that has not reported yet.
_PENDING = object()


def _reply(item: DataItem, status: int, hex_field=None, payload: bytes = b"", **fields):
    """The response item for request ``item``: same name and key, the
    envelope ``{"status": status, **fields}`` plus ``payload`` unbuilt."""
    return EnvelopeItem(
        item.ident, {"status": status, **fields}, hex_field, payload, key=item.key
    )


class CommunicationEngine:
    """One communication engine bound to one CPU core."""

    __slots__ = (
        "env", "group", "network", "name", "tasks_executed", "busy_seconds",
        "retries_performed", "exchange_timeouts", "handler_faults", "_throttle",
        "_failure_rng", "_transient_failure_rate", "_request_cache",
    )

    def __init__(
        self, env: Environment, group, network: SimulatedNetwork, name: str = "comm-engine",
        failure_rng=None, transient_failure_rate: float = 0.0, throttle=None,
    ):
        self.env = env
        self.group = group
        self.network = network
        self.name = name
        # Degraded-mode (limplock) model: stretches both the serial CPU
        # work and the network exchange time by the worker's shared
        # throttle multiplier (a slow NIC slows the wire, a slow core
        # slows parsing).  Healthy workers multiply by exactly 1.0 and
        # schedule no extra events.
        self._throttle = throttle
        self.tasks_executed = 0
        self.busy_seconds = 0.0
        self.retries_performed = 0
        self.exchange_timeouts = 0
        self.handler_faults = 0
        self._failure_rng = failure_rng
        self._transient_failure_rate = transient_failure_rate
        # Identity-keyed memo cache for the hot HTTP path.  Workloads
        # re-send the same request bytes, so the parse/sanitize work is
        # done once per distinct object.  Entries pin the keyed object,
        # which keeps recycled ids from ever aliasing a dead one; it is
        # bounded, so adversarial traffic degrades to the slow path.
        self._request_cache: dict[int, tuple] = {}

    def run(self, task: Task, on_done) -> None:
        """Parse and validate ``task`` on this core, then hand its
        exchanges to a green thread that calls ``on_done(outcome)``."""
        items = sum(len(s) for s in task.input_sets)
        cpu = items * _PER_REQUEST_CPU_SECONDS + task.input_bytes / _CPU_BYTES_PER_SECOND
        if self._throttle is not None:
            cpu *= self._throttle.multiplier
        self.env.call_later(cpu, self._parsed, task, on_done, cpu)

    def _parsed(self, task: Task, on_done, cpu: float) -> None:
        self.busy_seconds += cpu
        self.tasks_executed += 1
        # The green thread starts one hop from now, after this engine
        # has taken its next task: I/O overlaps with further parsing.
        self.env.call_later(0.0, _GreenThread, self, task, on_done, cpu)
        self.group.pull(self)

    def _http_exchange(self, item: DataItem, protocol: str, timeout, on_done) -> None:
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
            on_done(_reply(item, 400, error=rejection))
            return
        _Exchange(
            self, item, partial(self.network.perform, request),
            lambda r: _reply(item, r.status, "body_hex", r.body, reason=r.reason),
            request.method in IDEMPOTENT_METHODS, timeout, "exchange",
            self._transient_failure_rate, on_done,
        )

    def _kv_exchange(self, item: DataItem, protocol: str, timeout, on_done) -> None:
        """Carry one key-value request through sanitization and the
        network (§4.1's TCP text-protocol communication function).

        Reads and absolute writes (:data:`IDEMPOTENT_KV_OPS`) may be
        re-issued; an overdue ``incr`` surfaces an error item (a blind
        re-issue could double-count, §6.1).
        """
        try:
            envelope = sanitize_kv_request(parse_kv_request_item(item.data))
        except (ValueError, SanitizationError) as exc:
            on_done(_reply(item, 400, error=str(exc)))
            return
        host, op, key, value = (envelope[name] for name in ("host", "op", "key", "value"))
        _Exchange(
            self, item, partial(self.network.perform_kv, host, op, key, value),
            lambda r: _reply(item, r[0], "value_hex", r[1], reason=r[2]),
            op in IDEMPOTENT_KV_OPS, timeout, "kv exchange", 0.0, on_done,
        )

    def _unknown_protocol(self, item: DataItem, protocol: str, timeout, on_done) -> None:
        on_done(_reply(item, 400, error=f"unsupported protocol {protocol!r}"))

    # protocol -> handler(engine, item, protocol, timeout, on_done), which
    # calls on_done(response item) once.
    _PROTOCOL_HANDLERS = {
        "http": _http_exchange,
        "kv": _kv_exchange,
    }


class _GreenThread:
    """One communication task's exchanges, from the engine's hand-off to
    its outcome; the responses are collected in item order."""

    __slots__ = ("engine", "on_done", "cpu_seconds", "responses", "left")

    def __init__(self, engine: CommunicationEngine, task: Task, on_done, cpu_seconds: float):
        self.engine = engine
        self.on_done = on_done
        self.cpu_seconds = cpu_seconds
        items = [item for data_set in task.input_sets for item in data_set]
        self.responses = [None] * len(items)
        self.left = len(items)  # None once the task has failed
        if len(items) == 1:
            # The common case: the exchange runs in this green thread.
            self._start(items, task.protocol, task.timeout)
        elif items:
            # A green thread per item, started one hop from now.
            engine.env.call_later(0.0, self._start, items, task.protocol, task.timeout)
        else:
            self._finish(None)

    def _start(self, items: list, protocol: str, timeout) -> None:
        engine = self.engine
        handler = engine._PROTOCOL_HANDLERS.get(protocol, CommunicationEngine._unknown_protocol)
        for index, item in enumerate(items):
            try:
                handler(engine, item, protocol, timeout, partial(self._item_done, index))
            except Exception as exc:  # noqa: BLE001 - any handler bug must fail the task
                self._settle(exc)

    def _item_done(self, index: int, response) -> None:
        if self.left is not None:
            self.responses[index] = response
            self.left -= 1
            if not self.left:
                self._settle(None)

    def _settle(self, fault) -> None:
        if self.left is None:
            return
        self.left = None
        if len(self.responses) > 1:
            # The task completes one hop after its last item.
            self.engine.env.call_later(0.0, self._finish, fault)
        else:
            self._finish(fault)

    def _finish(self, fault) -> None:
        engine = self.engine
        if fault is None:
            outcome = TaskOutcome(
                success=True,
                outputs=[DataSet(RESPONSE_SET, self.responses)],
                service_seconds=self.cpu_seconds,
            )
        else:
            # Handler bugs are deterministic, so the failure is not
            # marked retryable.
            engine.handler_faults += 1
            outcome = TaskOutcome(
                success=False, error=fault, service_seconds=self.cpu_seconds, transient=False
            )
        # The caller resumes one hop from now, after this step.
        engine.env.call_later(0.0, self.on_done, outcome)


class _Exchange:
    """One request item through the network under the retry budget (§6.1).

    Transient network failures (modelled by the injection knobs) and
    exchanges that exceed ``timeout`` are retried transparently when the
    protocol marks the request idempotent (``retryable``); otherwise the
    failure surfaces to the user as an error item, since blind re-issue
    could duplicate side effects.

    With a ``timeout``, each attempt races the exchange against a timer;
    the first to report decides the race, which settles one hop later.
    A report for a superseded attempt is stale (the shape of pydesim's
    removed-event flag): an overdue exchange runs to its end in virtual
    time, but its result is dropped.
    """

    __slots__ = (
        "engine", "item", "send", "reply", "retryable", "timeout", "what",
        "failure_rate", "on_done", "attempts", "decided", "result",
    )

    def __init__(self, engine, item, send, reply, retryable, timeout, what, failure_rate, on_done):
        self.engine = engine
        self.item = item
        self.send = send          # send(on_result) starts one network exchange
        self.reply = reply        # reply(result) -> response item
        self.retryable = retryable
        self.timeout = timeout
        self.what = what
        self.failure_rate = failure_rate
        self.on_done = on_done
        self.attempts = 0
        self._attempt()

    def _attempt(self) -> None:
        engine = self.engine
        env = engine.env
        if (
            self.failure_rate > 0
            and engine._failure_rng is not None
            and engine._failure_rng.bernoulli(self.failure_rate)
        ):
            # The connection dropped mid-exchange: charge a round trip,
            # then decide whether the request may be retried.
            env.call_later(
                engine.network.latency.round_trip_seconds, self._failed, 503, "connection reset"
            )
        elif self.timeout is None:
            self._stretched(self._replied)
        else:
            # Race the exchange, started one hop from now, against the
            # task deadline (§6.1); it reports one hop after it ends.  The
            # limp stretch runs inside the race, so a limping NIC's slow
            # exchanges hit the deadline like real ones.
            self.decided = False
            self.result = _PENDING
            landed = partial(env.call_later, 0.0, self._report, self.attempts)
            env.call_later(0.0, self._stretched, landed)
            env.call_later(self.timeout, self._report, self.attempts)

    def _replied(self, result) -> None:
        self.on_done(self.reply(result))

    def _stretched(self, on_result) -> None:
        """Start one exchange, stretched by the worker's limp factor: the
        extra wait follows the real exchange, so it composes with whatever
        the network charged.  Healthy workers schedule nothing extra."""
        throttle = self.engine._throttle
        if throttle is None or throttle.multiplier <= 1.0:
            self.send(on_result)
        else:
            self.send(partial(self._stretch, self.engine.env.now, on_result))

    def _stretch(self, started: float, on_result, result) -> None:
        env = self.engine.env
        extra = (self.engine._throttle.multiplier - 1.0) * (env.now - started)
        if extra > 0:
            env.call_later(extra, on_result, result)
        else:
            on_result(result)

    def _report(self, attempt: int, result=_PENDING) -> None:
        """The exchange's result, or the deadline timer's expiry."""
        if attempt != self.attempts:
            return
        if result is not _PENDING:
            self.result = result
        if not self.decided:
            self.decided = True
            # Settled one hop from now: a result reported in this instant
            # before then still wins.
            self.engine.env.call_later(0.0, self._settle)

    def _settle(self) -> None:
        if self.result is not _PENDING:
            self._replied(self.result)
            return
        self.engine.exchange_timeouts += 1
        self._failed(504, f"{self.what} exceeded {self.timeout}s deadline")

    def _failed(self, status: int, error: str) -> None:
        if not (self.retryable and self.attempts < MAX_RETRIES):
            self.on_done(
                _reply(
                    self.item, status, error=error, retried=self.attempts,
                    idempotent=self.retryable,
                )
            )
            return
        self.attempts += 1
        self.engine.retries_performed += 1
        self._attempt()
