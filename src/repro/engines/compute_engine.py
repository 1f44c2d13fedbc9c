"""Compute engines — run-to-completion execution of sandboxed functions.

"Compute engines are responsible for securely executing untrusted user
code. ... Compute functions do not block, so each compute engine only
runs a single task at a time to completion to minimize interference and
context switching." (§5)

An engine is a simulation process pinned to one CPU core: it polls the
compute task queue ("late binding"), charges the full sandbox breakdown
(Table 1 stages plus modelled compute time) as busy time on its core,
and reports a :class:`TaskOutcome`.
"""

from __future__ import annotations

from typing import Optional

from ..backends.base import IsolationBackend
from ..errors import FunctionFailure, FunctionTimeout, MemoryLimitExceeded
from ..functions.purity import purity_guard
from ..sim.core import Environment
from ..sim.resources import Store
from .task import Task, TaskOutcome

__all__ = ["ComputeEngine", "SHUTDOWN"]

# Sentinel pushed onto a queue to retire exactly one engine.
SHUTDOWN = object()


class ComputeEngine:
    """One compute engine bound to one CPU core."""

    def __init__(
        self,
        env: Environment,
        queue: Store,
        backend: IsolationBackend,
        name: str = "compute-engine",
        failure_rng=None,
        transient_failure_rate: float = 0.0,
        batch_guard: bool = False,
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
        # Degraded-mode (limplock) model: the worker's shared throttle
        # stretches service times.  Healthy workers have multiplier 1.0
        # and `service * 1.0 == service` exactly, so the fault-free
        # event stream is bit-identical to a build without throttling.
        self._throttle = throttle
        # Engine-scoped purity guard: hold the (re-entrant) guard for
        # the engine's whole lifetime so each compute run's own guard
        # is a counter bump instead of the patch/unpatch loop.  Only
        # safe when nothing else in the program performs blocked
        # operations (open/sockets/...) while the simulation runs, so
        # it is opt-in.
        self._batch_guard = batch_guard
        self.process = env.process(self._run())

    def _run(self):
        guard = purity_guard() if self._batch_guard else None
        if guard is not None:
            guard.__enter__()
        try:
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
                    task.completion.succeed(outcome, delay=service)
                    yield task.completion
                    self.busy_seconds += service
                    self.tasks_executed += 1
                else:
                    self.busy_seconds += service
                    self.tasks_executed += 1
                    task.completion.succeed(outcome)
                del task, outcome  # an idle engine keeps no invocation's data alive
        finally:
            if guard is not None:
                guard.__exit__(None, None, None)
        self.stopped.succeed(self.name)

    def _execute(self, task: Task) -> TaskOutcome:
        # Engine-level transient fault injection (crashed sandbox, not
        # buggy user code): the dispatcher may retry these, since pure
        # compute functions are idempotent (§6.1 fault tolerance).
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
            # Deterministic failures are charged sandbox-creation time
            # (the sandbox was built before the function misbehaved).
            creation = self.backend.creation_seconds(task.binary, task.cached)
            return TaskOutcome(
                success=False, error=exc, service_seconds=creation, transient=False
            )
        return TaskOutcome(
            success=True,
            outputs=execution.outputs,
            service_seconds=execution.total_seconds,
            breakdown=execution.breakdown,
        )
