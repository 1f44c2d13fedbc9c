"""Control plane: periodic core re-allocation between engine types.

Every epoch the allocator samples both engine groups' queues and feeds
their growth since the previous epoch into the paper's PI controller
(:class:`~repro.controlplane.pi_controller.PiController`).  It actuates
the controller's decision — move a core toward compute, toward
communication, or hold — subject to the ``min_engines`` floor so
neither function type can be starved entirely.  A static split is the
allocator switched off (``enabled=False``; ``sched.cores = "static"``
in a scenario spec).
"""

from __future__ import annotations

from functools import partial

from ..engines.group import EngineGroup
from ..sim.core import Environment
from .pi_controller import PiConfig, PiController

__all__ = ["CoreAllocator", "CONTROL_EPOCH_SECONDS"]

CONTROL_EPOCH_SECONDS = 0.030  # the paper's 30 ms control period


class CoreAllocator:
    """Runs the PI controller and moves cores between the two engine groups.

    Each group always keeps at least ``min_engines`` cores so neither
    function type can be starved entirely.
    """

    def __init__(
        self,
        env: Environment,
        compute_group: EngineGroup,
        comm_group: EngineGroup,
        epoch_seconds: float = CONTROL_EPOCH_SECONDS,
        config: PiConfig = PiConfig(),
        min_engines: int = 1,
        enabled: bool = True,
    ):
        self.env = env
        self.compute_group = compute_group
        self.comm_group = comm_group
        self.epoch_seconds = epoch_seconds
        self.controller = PiController(config)
        self.min_engines = min_engines
        self.enabled = enabled
        self.reassignments: list[tuple[float, str]] = []
        self.allocation_history: list[tuple[float, int, int]] = []
        self._previous_compute_queue = 0
        self._previous_comm_queue = 0
        if enabled:
            # The first epoch is armed one hop from now, after the events
            # scheduled while the worker is built.
            env.call_later(0.0, env.call_later, epoch_seconds, self._epoch)

    def _epoch(self) -> None:
        compute_queue = self.compute_group.sample_queue()
        comm_queue = self.comm_group.sample_queue()
        decision = self.controller.update(
            compute_queue - self._previous_compute_queue,
            comm_queue - self._previous_comm_queue,
        )
        self._previous_compute_queue = compute_queue
        self._previous_comm_queue = comm_queue
        # A move waits for the retiring engine to finish its task; the
        # next epoch is counted from the end of the move.
        if decision > 0 and self.comm_group.engine_count > self.min_engines:
            self.comm_group.shrink(partial(self._moved, self.compute_group, "comm->compute"))
        elif decision < 0 and self.compute_group.engine_count > self.min_engines:
            self.compute_group.shrink(partial(self._moved, self.comm_group, "compute->comm"))
        else:
            self._epoch_done()

    def _moved(self, grown: EngineGroup, direction: str, _retired) -> None:
        grown.grow()
        self.reassignments.append((self.env.now, direction))
        self._epoch_done()

    def _epoch_done(self) -> None:
        self.allocation_history.append(
            (self.env.now, self.compute_group.engine_count, self.comm_group.engine_count)
        )
        self.env.call_later(self.epoch_seconds, self._epoch)
