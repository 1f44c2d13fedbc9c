"""Control plane: periodic core re-allocation between engine types.

The decision — move a core toward compute, toward communication, or
hold — is a pluggable core-scheduling policy from the unified layer
(:mod:`repro.sched.cores`, docs/scheduling.md).  The default is the
paper's PI controller over queue-growth error signals
(:class:`~repro.sched.cores.PiCorePolicy`); the allocator samples both
engine groups each epoch, builds a
:class:`~repro.sched.snapshots.CoreSnapshot`, and actuates whatever the
policy decides, subject to the ``min_engines`` floor so neither
function type can be starved entirely.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..engines.group import EngineGroup
from ..sched.cores import CorePolicy, PiCorePolicy
from ..sched.snapshots import CoreSnapshot
from ..sim.core import Environment
from .pi_controller import PiConfig

__all__ = ["CoreAllocator", "CONTROL_EPOCH_SECONDS"]

CONTROL_EPOCH_SECONDS = 0.030  # the paper's 30 ms control period


class CoreAllocator:
    """Runs the core policy and moves cores between the two engine groups.

    Each group always keeps at least ``min_engines`` cores so neither
    function type can be starved entirely.  Pass ``policy`` to slot in
    an alternative controller; ``config`` configures the default PI
    policy and is ignored when ``policy`` is given.
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
        policy: Optional[CorePolicy] = None,
    ):
        self.env = env
        self.compute_group = compute_group
        self.comm_group = comm_group
        self.epoch_seconds = epoch_seconds
        self.policy = policy if policy is not None else PiCorePolicy(config)
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
        snapshot = CoreSnapshot(
            self.env.now,
            compute_queue,
            comm_queue,
            compute_queue - self._previous_compute_queue,
            comm_queue - self._previous_comm_queue,
            self.compute_group.engine_count,
            self.comm_group.engine_count,
            self.min_engines,
        )
        self._previous_compute_queue = compute_queue
        self._previous_comm_queue = comm_queue
        decision = self.policy.decide(snapshot)
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
