"""Reference shard kernel for the differential test in ``test_sharded``.

The generator+``Resource`` formulation of the Dandelion trace worker —
the pre-sharding simulation idiom — behind the
:class:`~repro.sim.sharded.shard.ShardSim` interface.  It left the
product when the event-heap kernel became the only one; it stays here
so the equivalence check (same KPIs modulo ``events``) runs live for any
trace/seed instead of against one frozen golden.  Dandelion platform
only; ``heap_oracle.py`` covers both platforms.
"""

from repro.backends.costs import REPLAY_CREATION_SECONDS
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.sharded.shard import (
    GRID_STEP,
    PLATFORM_DANDELION,
    ShardSim,
    _StepSeries,
)


class ClassicShardSim:
    """Same interface as :class:`ShardSim`; every delivery runs as a
    generator process acquiring a ``Resource`` core slot."""

    __slots__ = ("env", "workers", "worker_indices", "cores")

    def __init__(self, worker_indices, config: dict):
        if config["platform"] != PLATFORM_DANDELION:
            raise ValueError("classic oracle models the dandelion platform only")
        self.env = Environment()
        self.worker_indices = tuple(worker_indices)
        self.cores = config["cores_per_worker"]
        self.workers = [
            _ClassicDandelionWorker(
                self.env, self.cores, config["memory_of"], config["duration_seconds"]
            )
            for _ in self.worker_indices
        ]

    def run_window(self, deliveries, end: float) -> None:
        # Workers share nothing, so spawning worker by worker (each list
        # in trace order) serves every delivery as a time-ordered batch would.
        env = self.env
        for worker, routed in zip(self.workers, deliveries):
            for delivery, fn_index, duration, arrival in routed:
                env.process(worker.serve(delivery, fn_index, duration, arrival))
        env.run(until=end)

    drain_latencies = ShardSim.drain_latencies
    final_summary = ShardSim.final_summary

    def outstanding(self) -> list[int]:
        return [w.outstanding for w in self.workers]

    @property
    def events(self) -> int:
        return self.env._seq


class _ClassicDandelionWorker:
    """Generator+Resource restatement of :class:`_DandelionWorker`."""

    __slots__ = (
        "env", "cores", "memory_of", "committed",
        "latencies", "series", "completed", "outstanding",
    )

    def __init__(self, env, cores, memory_of, duration):
        self.env = env
        self.cores = Resource(env, capacity=cores)
        self.memory_of = memory_of
        self.committed = 0
        self.latencies: list[float] = []
        self.series = _StepSeries(duration, GRID_STEP)
        self.completed = 0
        self.outstanding = 0

    def serve(self, delivery, fn_index, duration, arrival):
        env = self.env
        delay = delivery - env._now
        if delay > 0:
            yield env.timeout(delay)
        self.outstanding += 1
        memory = self.memory_of[fn_index]
        slot = self.cores.request()
        yield slot
        self.committed += memory
        self.series.record(env._now, self.committed)
        yield env.timeout(REPLAY_CREATION_SECONDS + duration)
        self.committed -= memory
        self.series.record(env._now, self.committed)
        self.cores.release(slot)
        self.latencies.append(env._now - arrival)
        self.completed += 1
        self.outstanding -= 1
