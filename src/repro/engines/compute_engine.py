"""Compute engines — run-to-completion execution of sandboxed functions.

"Compute engines are responsible for securely executing untrusted user
code. ... Compute functions do not block, so each compute engine only
runs a single task at a time to completion to minimize interference and
context switching." (§5)

An engine is pinned to one CPU core.  Its group hands it the oldest
queued task ("late binding"); it charges the full sandbox breakdown
(Table 1 stages plus modelled compute time) as busy time on its core,
reports a :class:`TaskOutcome` when that time has passed, and asks the
group for the next task in the same step.
"""

from __future__ import annotations

from ..backends.base import IsolationBackend
from ..errors import FunctionFailure, FunctionTimeout, MemoryLimitExceeded
from ..sim.core import Environment
from .task import Task, TaskOutcome

__all__ = ["ComputeEngine"]


class ComputeEngine:
    """One compute engine bound to one CPU core."""

    __slots__ = (
        "env", "group", "backend", "name", "tasks_executed",
        "_failure_rng", "_transient_failure_rate", "_throttle",
    )

    def __init__(
        self, env: Environment, group, backend: IsolationBackend, name: str = "compute-engine",
        failure_rng=None, transient_failure_rate: float = 0.0, throttle=None,
    ):
        self.env = env
        self.group = group
        self.backend = backend
        self.name = name
        self.tasks_executed = 0
        self._failure_rng = failure_rng
        self._transient_failure_rate = transient_failure_rate
        # Degraded-mode (limplock) model: the worker's shared throttle
        # stretches service times.  Healthy workers have multiplier 1.0
        # and `service * 1.0 == service` exactly, so the fault-free
        # event stream is bit-identical to a build without throttling.
        self._throttle = throttle

    def run(self, task: Task, on_done) -> None:
        """Execute ``task`` and call ``on_done(outcome)`` once its service
        time has passed on this core."""
        outcome = self._execute(task)
        service = outcome.service_seconds
        if self._throttle is not None:
            service *= self._throttle.multiplier
        if service > 0:
            self.env.call_later(service, self._finish, outcome, on_done)
            return
        self.tasks_executed += 1
        self.env.call_later(0.0, on_done, outcome)
        self.group.pull(self)

    def _finish(self, outcome: TaskOutcome, on_done) -> None:
        # The caller's continuation runs first, so a task it submits now
        # is queued when this engine asks for its next one.
        on_done(outcome)
        self.tasks_executed += 1
        self.group.pull(self)

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
            success=True, outputs=execution.outputs, service_seconds=execution.total_seconds
        )
