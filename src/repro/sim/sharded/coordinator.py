"""Conservative time-window coordinator for the sharded simulator.

Topology is hub-and-spoke: shards never talk to each other, only to
the coordinator, and only at window barriers.  Each window of length
``window_seconds`` proceeds as

1. the coordinator takes the window's arrivals from the trace stream
   (already one list per window, cut at the same ``end``) and routes
   them through the :class:`~repro.dispatcher.windowed.WindowedRouter`
   against the fleet view merged from the *previous* barrier's reports,
   which returns one delivery list per worker;
2. every delivery time already includes the dispatch delay, the
   conservative lookahead — nothing the dispatcher decides in this
   window can take effect inside a shard earlier than that, and shards
   cannot affect each other at all, so any window length is causally
   safe;
3. each shard takes the lists of the workers it owns, runs each
   worker's window in one loop up to the window end, and reports
   outstanding counts plus the window's completion latencies;
4. the coordinator merges the reports (global worker order, see
   :class:`~repro.cluster.sharding.ShardPlan`) and the loop repeats
   until the stream is exhausted and every routed invocation has
   completed.

The window length therefore trades snapshot freshness (routing acts on
state ``window_seconds`` stale, exactly like a real cluster manager
polling worker state) against barrier overhead — it is a *model*
parameter, identical across shard counts, which is why KPIs are
invariant to sharding.  Determinism rules are spelled out in
docs/simulation.md.

Everything runs in this process: the coordinator loop steps its
:class:`~.shard.ShardSim` objects directly and deliveries are plain
tuple lists.  ``shards > 1`` buys no speed (it costs a little); it exists so
tests and ``perf --check`` can assert that partitioning the fleet
cannot change a KPI.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from ...cluster.sharding import ShardPlan
from ...dispatcher.windowed import WindowedRouter
from ..metrics import percentile
from .shard import PLATFORM_DANDELION, PLATFORM_FAAS, ShardSim

__all__ = [
    "ShardedConfig",
    "ShardedReplayReport",
    "run_sharded_replay",
]


@dataclass
class ShardedConfig:
    """Fleet, platform, and synchronization parameters for one run."""

    workers: int
    cores_per_worker: int = 16
    # Partition count: a determinism oracle, not a speed knob (KPIs are
    # identical for every value; one shard is the fastest).
    shards: int = 1
    window_seconds: float = 0.5
    platform: str = PLATFORM_DANDELION
    policy: str = "least_loaded"
    seed: int = 0
    # FaaS platform keep-alive (the worker's costs live in
    # baselines.specs).  75 s approximates Knative's 60 s stable window plus
    # scale-to-zero grace and lands near the ~3.3% cold ratio the paper
    # reports on this trace.
    keep_alive_seconds: float = 75.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.cores_per_worker < 1:
            # No core would ever free up: the replay would never drain.
            raise ValueError("cores_per_worker must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not self.window_seconds > 0:
            raise ValueError("window_seconds must be positive")
        if self.platform not in (PLATFORM_DANDELION, PLATFORM_FAAS):
            raise ValueError(f"unknown platform {self.platform!r}")
        if not 0 <= self.keep_alive_seconds < math.inf:
            # A negative timer would fire before the completion that set
            # it, out of the workers' time order; a non-finite one is no time.
            raise ValueError("keep_alive_seconds must be finite and >= 0")


@dataclass
class ShardedReplayReport:
    """Merged results of one sharded replay.

    Everything in :meth:`summary` is a pure function of the trace and
    the :class:`ShardedConfig` model parameters — byte-identical across
    shard counts.  Wall-clock observability lives in
    :attr:`wall_seconds` and never feeds the summary.
    """

    platform: str
    workers: int
    cores_per_worker: int
    duration_seconds: float
    routed: int
    completed: int
    cold_starts: int
    events: int
    windows: int
    committed_grid: list
    active_grid: Optional[list]
    committed_mean_bytes: float
    active_mean_bytes: Optional[float]
    latencies: list = field(repr=False)
    # Observability (excluded from summary): one dict per shard with
    # its worker count, events and windows, plus coordinator wall clock.
    shard_stats: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q)

    def summary(self) -> dict:
        """Deterministic KPI record (shard-count invariant)."""
        n = len(self.latencies)
        return {
            "platform": self.platform,
            "workers": self.workers,
            "cores_per_worker": self.cores_per_worker,
            "routed": self.routed,
            "completed": self.completed,
            "cold_starts": self.cold_starts,
            "events": self.events,
            "windows": self.windows,
            "latency_p50": self.latency_percentile(50) if n else 0.0,
            "latency_p99": self.latency_percentile(99) if n else 0.0,
            "latency_mean": (sum(self.latencies) / n) if n else 0.0,
            "committed_mean_bytes": self.committed_mean_bytes,
            "active_mean_bytes": self.active_mean_bytes,
            "committed_grid": list(self.committed_grid),
            "active_grid": list(self.active_grid) if self.active_grid is not None else None,
        }


def run_sharded_replay(trace, config: ShardedConfig) -> ShardedReplayReport:
    """Replay ``trace`` (a :class:`~repro.trace.stream.StreamedTrace`)."""
    duration = trace.duration_seconds
    plan = ShardPlan(config.workers, config.shards)
    router = WindowedRouter(plan, config.policy, config.seed)
    shard_config = {
        **asdict(config),
        "duration_seconds": duration,
        "memory_of": trace.memory_bytes(),
    }
    shard_workers = [plan.workers_of(shard) for shard in range(plan.shard_count)]
    sims = [ShardSim(workers, shard_config) for workers in shard_workers]
    window = config.window_seconds
    begin_wall = time.perf_counter()
    stream = trace.iter_windows(window)
    routed = 0
    windows = 0
    latencies: list = []
    while True:
        end = (windows + 1) * window
        # The stream ends with the first window whose end >= duration;
        # the windows after it only drain what is still running.
        arrivals = next(stream, ())
        routed += len(arrivals)
        deliveries = router.route_window(arrivals)
        for sim, workers in zip(sims, shard_workers):
            sim.run_window([deliveries[worker] for worker in workers], end)
            latencies += sim.drain_latencies()
        router.refresh([sim.outstanding() for sim in sims])
        windows += 1
        if end >= duration and len(latencies) == routed:
            break
    finals = [sim.final_summary() for sim in sims]
    wall_seconds = time.perf_counter() - begin_wall

    # Merge per-worker aggregates in global worker order: sums of ints
    # are exact and float additions happen in one canonical order, so
    # the merged KPIs are identical for every shard count.
    worker_entries = plan.merge([final["workers"] for final in finals])
    grid_points = len(worker_entries[0]["committed_grid"])
    committed_grid = [0] * grid_points
    committed_integral = 0.0
    has_active = "active_grid" in worker_entries[0]
    active_grid = [0] * grid_points if has_active else None
    active_integral = 0.0
    cold_starts = 0
    completed = 0
    for entry in worker_entries:
        for i, value in enumerate(entry["committed_grid"]):
            committed_grid[i] += value
        committed_integral += entry["committed_integral"]
        completed += entry["completed"]
        if has_active:
            for i, value in enumerate(entry["active_grid"]):
                active_grid[i] += value
            active_integral += entry["active_integral"]
            cold_starts += entry["cold_starts"]

    shard_stats = [
        {
            "shard": shard,
            "workers": len(plan.workers_of(shard)),
            "events": final["events"],
            "windows": windows,
            # Always zero in-process; perf/workloads.py reads the key.
            # A later `benchmark` PR drops it with sim.sharded.stall_share.
            "stall_seconds": 0.0,
        }
        for shard, final in enumerate(finals)
    ]

    return ShardedReplayReport(
        platform=config.platform,
        workers=config.workers,
        cores_per_worker=config.cores_per_worker,
        duration_seconds=duration,
        routed=routed,
        completed=completed,
        cold_starts=cold_starts,
        events=sum(final["events"] for final in finals),
        windows=windows,
        committed_grid=committed_grid,
        active_grid=active_grid,
        committed_mean_bytes=committed_integral / duration if duration else 0.0,
        active_mean_bytes=(active_integral / duration if duration else 0.0) if has_active else None,
        latencies=sorted(latencies),
        shard_stats=shard_stats,
        wall_seconds=wall_seconds,
    )
