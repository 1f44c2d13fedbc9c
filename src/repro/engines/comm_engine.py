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
from types import MappingProxyType

from ..data.envelope import EnvelopeItem
from ..data.items import DataItem, DataSet
from ..functions.sdk import parse_http_request_item
from ..net.http import HttpRequest, SanitizationError, sanitize_request
from ..net.network import SimulatedNetwork
from ..sim.core import Environment
from .task import Task, TaskOutcome

__all__ = ["CommunicationEngine", "RESPONSE_SET", "IDEMPOTENT_METHODS"]

RESPONSE_SET = "response"

# CPU cost of parsing/validating one request and assembling its
# response, charged serially on the engine core.
_PER_REQUEST_CPU_SECONDS = 20e-6
_CPU_BYTES_PER_SECOND = 5e9

# §6.1 fault tolerance: "Communication function failures are more
# complicated due to side effects.  Protocol specifications can help
# Dandelion decide which functions can be re-executed ... For example,
# HTTP PUT requests are idempotent."  Methods in this set may be
# re-issued transparently after a missed exchange deadline.
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE"})

# Re-issues of an idempotent request after a missed exchange deadline.
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
        "env", "group", "network", "name", "tasks_executed", "retries_performed",
        "exchange_timeouts", "handler_faults", "_throttle", "_request_cache",
    )

    def __init__(
        self, env: Environment, group, network: SimulatedNetwork, name: str = "comm-engine",
        throttle=None,
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
        self.retries_performed = 0
        self.exchange_timeouts = 0
        self.handler_faults = 0
        # Request bytes -> (sanitized request or None, rejection text).
        # Invocations format fresh but equal request bytes, so each
        # distinct request is parsed and sanitized once per engine; the
        # modelled CPU in ``run`` is still charged per request.  Bounded
        # without eviction, so novel traffic past 512 takes the slow path.
        self._request_cache: dict[bytes, tuple] = {}

    def run(self, task: Task, on_done) -> None:
        """Parse and validate ``task`` on this core, then hand its
        exchanges to a green thread that calls ``on_done(outcome)``."""
        items = sum(len(s) for s in task.input_sets)
        cpu = items * _PER_REQUEST_CPU_SECONDS + task.input_bytes / _CPU_BYTES_PER_SECOND
        if self._throttle is not None:
            cpu *= self._throttle.multiplier
        self.env.call_later(cpu, self._parsed, task, on_done, cpu)

    def _parsed(self, task: Task, on_done, cpu: float) -> None:
        self.tasks_executed += 1
        # The green thread starts one hop from now, after this engine
        # has taken its next task: I/O overlaps with further parsing.
        self.env.call_later(0.0, _GreenThread, self, task, on_done, cpu)
        self.group.pull(self)

    def _http_exchange(self, item: DataItem, timeout, on_done) -> None:
        """Carry one request item through sanitization and the network,
        then call ``on_done(response item)`` once.

        The verdict on the item's bytes comes from the engine's memo: one
        read-only :class:`HttpRequest` serves every exchange of equal
        bytes, and a rejection returns the same 400 item every time."""
        data = item.data
        cached = self._request_cache.get(data)
        if cached is None:
            try:
                envelope = parse_http_request_item(data)
                request = HttpRequest(
                    envelope["method"], envelope["url"],
                    MappingProxyType(envelope["headers"]), envelope["body"],
                )
                cached = (sanitize_request(request), None)
            except (ValueError, SanitizationError) as exc:
                cached = (None, str(exc))
            if len(self._request_cache) < 512:
                self._request_cache[data] = cached
        request, rejection = cached
        if request is None:
            # Same bytes, same sanitization verdict.
            on_done(_reply(item, 400, error=rejection))
            return
        _Exchange(self, item, request, timeout, on_done)


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
            self._start(items, task.timeout)
        elif items:
            # A green thread per item, started one hop from now.
            engine.env.call_later(0.0, self._start, items, task.timeout)
        else:
            self._finish(None)

    def _start(self, items: list, timeout) -> None:
        engine = self.engine
        for index, item in enumerate(items):
            try:
                engine._http_exchange(item, timeout, partial(self._item_done, index))
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
    """One request through the network under the retry budget (§6.1).

    With a ``timeout``, each attempt races the exchange against a timer;
    the first to report decides the race, which settles one hop later.
    An exchange that misses its deadline is re-issued when its method is
    idempotent (:data:`IDEMPOTENT_METHODS`); otherwise the failure
    surfaces to the user as an error item, since a blind re-issue could
    duplicate side effects.  A report for a superseded attempt is stale
    (the shape of pydesim's removed-event flag): an overdue exchange runs
    to its end in virtual time, but its result is dropped.
    """

    __slots__ = ("engine", "item", "request", "timeout", "on_done", "attempts", "decided", "result")

    def __init__(self, engine, item, request: HttpRequest, timeout, on_done):
        self.engine = engine
        self.item = item
        self.request = request
        self.timeout = timeout
        self.on_done = on_done
        self.attempts = 0
        self._attempt()

    def _attempt(self) -> None:
        if self.timeout is None:
            self._stretched(self._replied)
        else:
            # Race the exchange, started one hop from now, against the
            # task deadline (§6.1); it reports one hop after it ends.  The
            # limp stretch runs inside the race, so a limping NIC's slow
            # exchanges hit the deadline like real ones.
            env = self.engine.env
            self.decided = False
            self.result = _PENDING
            landed = partial(env.call_later, 0.0, self._report, self.attempts)
            env.call_later(0.0, self._stretched, landed)
            env.call_later(self.timeout, self._report, self.attempts)

    def _replied(self, response) -> None:
        self.on_done(
            _reply(self.item, response.status, "body_hex", response.body, reason=response.reason)
        )

    def _stretched(self, on_result) -> None:
        """Start one exchange, stretched by the worker's limp factor: the
        extra wait follows the real exchange, so it composes with whatever
        the network charged.  Healthy workers schedule nothing extra."""
        engine = self.engine
        throttle = engine._throttle
        if throttle is None or throttle.multiplier <= 1.0:
            engine.network.perform(self.request, on_result)
        else:
            engine.network.perform(self.request, partial(self._stretch, engine.env.now, on_result))

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
        engine = self.engine
        engine.exchange_timeouts += 1
        retryable = self.request.method in IDEMPOTENT_METHODS
        if not (retryable and self.attempts < MAX_RETRIES):
            self.on_done(
                _reply(
                    self.item, 504, error=f"exchange exceeded {self.timeout}s deadline",
                    retried=self.attempts, idempotent=retryable,
                )
            )
            return
        self.attempts += 1
        engine.retries_performed += 1
        self._attempt()
