"""The Dandelion worker node — Fig 4 wired together.

A :class:`WorkerNode` assembles the full per-node system: HTTP
frontend, dispatcher, compute and communication engine groups sharing
the machine's cores, the PI-controller control plane, the memory
tracker, and the simulated network the communication engines talk to.

Typical use::

    from repro import WorkerNode, WorkerConfig

    worker = WorkerNode(WorkerConfig(total_cores=16, backend="kvm"))
    worker.frontend.register_function(my_binary)
    worker.frontend.register_composition(dsl_source)
    process = worker.frontend.invoke("my_composition", {"data": b"..."})
    result = worker.env.run(until=process)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .backends.base import IsolationBackend, create_backend
from .composition.registry import Registry
from .controlplane.allocator import CoreAllocator
from .dispatcher.dispatcher import Dispatcher
from .dispatcher.memory import MemoryTracker
from .engines.comm_engine import CommunicationEngine
from .engines.compute_engine import ComputeEngine
from .engines.group import EngineGroup
from .engines.throttle import EngineThrottle
from .frontend.http_frontend import Frontend
from .net.network import LatencyModel, SimulatedNetwork
from .sim.core import Environment
from .sim.distributions import Rng

__all__ = ["WorkerNode", "WorkerConfig"]

# Initial split of cores: one communication engine, the rest compute;
# the control plane rebalances at runtime when enabled.
INITIAL_COMM_CORES = 1


@dataclass
class WorkerConfig:
    """Configuration of one worker node."""

    total_cores: int = 16
    backend: str = "kvm"
    machine: str = "linux"
    control_plane_enabled: bool = True
    cache_mode: str = "warm"
    data_passing: str = "copy"
    max_retries: int = 2
    default_timeout: Optional[float] = None
    transient_failure_rate: float = 0.0
    comm_failure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.total_cores < 2:
            raise ValueError("a worker needs at least 2 cores (compute + comm)")


class WorkerNode:
    """One Dandelion worker: engines + dispatcher + frontend + control plane."""

    def __init__(
        self,
        config: WorkerConfig = WorkerConfig(),
        env: Optional[Environment] = None,
        network: Optional[SimulatedNetwork] = None,
    ):
        self.config = config
        self.env = env or Environment()
        self.network = network or SimulatedNetwork(self.env, LatencyModel())
        self.registry = Registry()
        self.backend: IsolationBackend = create_backend(config.backend, config.machine)
        self._rng = Rng(config.seed)

        # One throttle shared by every engine on this node: the gray-
        # failure (limplock) knob.  Healthy nodes sit at 1.0, which is
        # an exact multiplicative no-op on every service time.
        self.throttle = EngineThrottle()
        failure_rng = self._rng.fork(1) if config.transient_failure_rate > 0 else None
        self.compute_group = EngineGroup(
            self.env,
            kind="compute",
            engine_factory=lambda group, name: ComputeEngine(
                self.env,
                group,
                self.backend,
                name=name,
                failure_rng=failure_rng,
                transient_failure_rate=config.transient_failure_rate,
                throttle=self.throttle,
            ),
            initial_count=config.total_cores - INITIAL_COMM_CORES,
        )
        self.comm_group = EngineGroup(
            self.env,
            kind="communication",
            engine_factory=lambda group, name: CommunicationEngine(
                self.env,
                group,
                self.network,
                name=name,
                failure_rng=self._rng.fork(3) if config.comm_failure_rate > 0 else None,
                transient_failure_rate=config.comm_failure_rate,
                throttle=self.throttle,
            ),
            initial_count=INITIAL_COMM_CORES,
        )
        self.memory = MemoryTracker(self.env)
        self.dispatcher = Dispatcher(
            self.env,
            self.registry,
            self.compute_group,
            self.comm_group,
            memory=self.memory,
            cache_mode=config.cache_mode,
            data_passing=config.data_passing,
            max_retries=config.max_retries,
            default_timeout=config.default_timeout,
            retry_rng=self._rng.fork(4),
        )
        self.frontend = Frontend(self.env, self.registry, self.dispatcher)
        self.allocator = CoreAllocator(
            self.env,
            self.compute_group,
            self.comm_group,
            enabled=config.control_plane_enabled,
        )

    # -- convenience -------------------------------------------------------

    def set_limp(self, multiplier: float) -> None:
        """Degrade (or restore) this node's engine throughput.

        ``multiplier`` >= 1.0 stretches every compute service time and
        network exchange by that factor — the "limplock" fault model:
        the node stays up and keeps answering, just slower.  1.0
        restores nominal speed.
        """
        self.throttle.set(multiplier)

    @property
    def limp_multiplier(self) -> float:
        return self.throttle.multiplier

    @property
    def total_engine_cores(self) -> int:
        return self.compute_group.engine_count + self.comm_group.engine_count

    def run(self, until=None):
        """Drive the shared environment (delegates to env.run)."""
        return self.env.run(until=until)

    def invoke_and_run(self, composition_name: str, inputs: dict):
        """Invoke a composition and run the simulation until it finishes."""
        process = self.frontend.invoke(composition_name, inputs)
        return self.env.run(until=process)

    def stats(self) -> dict:
        """Headline telemetry for experiments."""
        return {
            "now": self.env.now,
            "compute_cores": self.compute_group.engine_count,
            "comm_cores": self.comm_group.engine_count,
            "compute_tasks": self.compute_group.tasks_executed,
            "comm_tasks": self.comm_group.tasks_executed,
            "invocations_completed": self.dispatcher.invocations_completed,
            "invocations_failed": self.dispatcher.invocations_failed,
            "retries_performed": self.dispatcher.retries_performed,
            "deadline_expirations": self.dispatcher.deadline_expirations,
            "committed_bytes": self.memory.current_bytes,
            "peak_committed_bytes": self.memory.peak_bytes,
        }
