"""Engine groups — dynamic pools of compute or communication engines.

The control plane re-assigns CPU cores between the two engine types at
runtime (§5).  A group owns one FIFO task queue and a resizable set of
engines; shrinking retires exactly one engine through the same queue
(the retiring engine finishes its current task first, so cores are
never preempted mid-function), and growing starts a new engine
immediately.  A free engine calls :meth:`EngineGroup.pull` and is
handed the oldest queued task in that step, or waits, longest-waiting
first, for :meth:`EngineGroup.submit` to hand it one a hop later.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..sim.core import Environment

__all__ = ["EngineGroup"]


class EngineGroup:
    """A resizable pool of same-type engines sharing one task queue.

    ``engine_factory(group, name)`` builds one engine; an engine has
    ``run(task, on_done)``, calls ``group.pull(engine)`` whenever it is
    free for the next task, and counts ``tasks_executed``.
    """

    __slots__ = (
        "env", "kind", "_engine_factory", "_engines", "_queue", "_idle", "_next_engine_id",
        "_pending_shutdowns", "_retired_tasks_executed",
    )

    def __init__(
        self,
        env: Environment,
        kind: str,
        engine_factory: Callable[["EngineGroup", str], object],
        initial_count: int = 1,
    ):
        self.env = env
        self.kind = kind
        self._engine_factory = engine_factory
        self._engines: list = []
        # (task, on_done) pairs, oldest first; a retirement is a pair
        # whose task is None (see shrink).
        self._queue: deque = deque()
        self._idle: deque = deque()
        self._next_engine_id = 0
        self._pending_shutdowns = 0
        self._retired_tasks_executed = 0
        for _ in range(initial_count):
            self.grow()

    # -- sizing -----------------------------------------------------------

    @property
    def engine_count(self) -> int:
        """Engines currently assigned (running minus pending retires)."""
        return len(self._engines) - self._pending_shutdowns

    @property
    def engines(self) -> list:
        return list(self._engines)

    def grow(self) -> None:
        """Assign one more core to this engine type."""
        engine = self._engine_factory(self, f"{self.kind}-engine-{self._next_engine_id}")
        self._next_engine_id += 1
        self._engines.append(engine)
        # A new engine asks for work one hop from now, after the step
        # that created it.
        self.env.call_later(0.0, self.pull, engine)

    def shrink(self, on_retired: Callable[[object], None]) -> None:
        """Retire one engine; ``on_retired(engine)`` is called once it has
        exited.  The retirement joins the FIFO queue, so the retiring
        engine first drains any tasks ahead of it — shrinking never
        cancels work."""
        if self.engine_count <= 0:
            raise ValueError(f"no {self.kind} engine left to retire")
        self._pending_shutdowns += 1
        self.submit(None, on_retired)

    def submit(self, task, on_done: Callable) -> None:
        """Queue ``task``; its engine calls ``on_done(outcome)``."""
        if self._idle:
            # One hop from now: the task starts after the submitting step.
            self.env.call_later(0.0, self._hand, self._idle.popleft(), task, on_done)
        else:
            self._queue.append((task, on_done))

    def pull(self, engine) -> None:
        """``engine`` is free for its next task."""
        if self._queue:
            self._hand(engine, *self._queue.popleft())
        else:
            self._idle.append(engine)

    def _hand(self, engine, task, on_done) -> None:
        if task is not None:
            engine.run(task, on_done)
            return
        self._engines.remove(engine)
        self._pending_shutdowns -= 1
        self._retired_tasks_executed += engine.tasks_executed
        # The shrinking caller resumes three hops from now; its place
        # among same-instant events is the one tests/engines/
        # test_engine_equivalence.py holds the group to.
        call_later = self.env.call_later
        call_later(0.0, call_later, 0.0, call_later, 0.0, on_done, engine)

    # -- telemetry ------------------------------------------------------------

    def sample_queue(self) -> int:
        """The current queue length (control-plane telemetry)."""
        return len(self._queue)

    @property
    def tasks_executed(self) -> int:
        live = sum(engine.tasks_executed for engine in self._engines)
        return live + self._retired_tasks_executed
