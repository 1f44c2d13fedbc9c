"""Reference shard kernel for the differential test in ``test_sharded``.

The generator+``Resource`` formulation of the Dandelion trace worker —
the pre-sharding simulation idiom — behind the
:class:`~repro.sim.sharded.shard.ShardSim` interface.  It left the
product when the lean kernel became the only one; it stays here so the
equivalence check (same KPIs modulo ``events``) runs live for any
trace/seed instead of against one frozen golden.  Dandelion platform
only.
"""

from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.sharded.shard import (
    CREATION_SECONDS,
    GRID_STEP,
    PLATFORM_DANDELION,
    ShardSim,
    _StepSeries,
)


class ClassicShardSim:
    """Same interface as :class:`ShardSim`; every delivery runs as a
    generator process acquiring a ``Resource`` core slot."""

    __slots__ = ("env", "workers", "worker_indices", "cores", "_by_global")

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
        self._by_global = {
            index: worker for index, worker in zip(self.worker_indices, self.workers)
        }

    def run_window(self, records, end: float) -> None:
        env = self.env
        by_global = self._by_global
        for delivery, worker, fn_index, duration, arrival in records:
            env.process(by_global[worker].serve(delivery, fn_index, duration, arrival))
        env.run(until=end)

    drain_latencies = ShardSim.drain_latencies
    final_summary = ShardSim.final_summary

    def outstanding(self) -> list[int]:
        return [w.outstanding for w in self.workers]

    @property
    def events(self) -> int:
        return self.env._seq


class _ClassicDandelionWorker:
    """Generator+Resource restatement of :class:`_LeanDandelionWorker`."""

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
        with self.cores.acquire() as slot:
            yield slot
            self.committed += memory
            self.series.record(env._now, self.committed)
            yield env.timeout(CREATION_SECONDS + duration)
            self.committed -= memory
            self.series.record(env._now, self.committed)
        self.latencies.append(env._now - arrival)
        self.completed += 1
        self.outstanding -= 1
