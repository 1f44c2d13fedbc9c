"""One shard of the partitioned cluster simulation.

A :class:`ShardSim` owns one event kernel over its slice of the fleet.
Between barriers it runs free; at a barrier it ingests the window's
delivery batch, runs to the window end, and reports per-worker
outstanding counts plus the window's completion latencies.

The kernel drives the environment's heap directly with packed tuples
``(time, seq, worker, kind, a, b)`` instead of :class:`~repro.sim.core.Event`
objects: a completion is one tuple push, a delivery is *no* heap
traffic at all — the window's batch is already time-sorted (trace order
plus a constant dispatch delay), so :meth:`ShardSim.run_window` merges
it against the heap head directly.  Each delivery still reserves one
kernel sequence number at the barrier, which keeps same-time
tie-breaking byte-identical to the event-object formulation and keeps
the ``events`` KPI counting deliveries.  Worker semantics: FIFO core
queueing, memory committed only while a core slot is held, service time
= sandbox creation + duration.  The trace does not contain function
*bodies*, so workers model timing and memory numerically while keeping
the real node's scheduling structure (run-to-completion on a core pool,
creation on the critical path).  The generator+``Resource`` formulation
of the same worker lives on as a test oracle
(``tests/sim/classic_oracle.py``); the invariance suite asserts both
produce byte-identical KPIs.

Everything a worker records is a function of its own delivery sequence
only — workers never observe each other — so grouping workers into
shards cannot change any per-worker result.  That is the whole
shard-count-invariance argument; see docs/simulation.md.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from ..core import Environment

__all__ = [
    "ShardSim",
    "PLATFORM_DANDELION",
    "PLATFORM_FAAS",
]

PLATFORM_DANDELION = "dandelion"
PLATFORM_FAAS = "faas"

# Cluster-manager dispatch delay: the coordinator's conservative
# lookahead (docs/simulation.md).
DISPATCH_DELAY_SECONDS = 0.0005
# Resample grid of the committed/active memory series, in seconds.
GRID_STEP = 60.0
# Dandelion platform: sandbox-creation seconds (process backend).
CREATION_SECONDS = 0.001
# FaaS platform: Firecracker-snapshot MicroVMs (baselines.specs) under
# Knative-style keep-alive (``ShardedConfig.keep_alive_seconds``).  The
# guest overhead is what a MicroVM commits beyond the function's working
# set (guest kernel, rootfs page cache, agent; paper §2.3).  A cold start
# is the 12 ms snapshot restore plus 0.8 s of scale-from-zero
# orchestration (activator hop, autoscaler reaction, scheduling) — the
# path behind the paper's 46% p99 gap.
GUEST_OVERHEAD_BYTES = 40 * 1024 * 1024
COLD_START_SECONDS = 0.812
HOT_START_SECONDS = 0.0014
PAGING_SECONDS_PER_MIB = 0.00012
COMPUTE_SLOWDOWN = 1.05


# Heap-entry kinds (tuple field 3).
_COMPLETE = 0
_EXPIRE = 1


class _StepSeries:
    """Per-worker step-function accumulator over [0, duration].

    Replaces :class:`~repro.sim.metrics.TimeSeries` for the sharded
    kernel: instead of storing every point it folds each change into
    the time-weighted integral and a fixed resample grid on the fly, so
    memory stays O(grid) across millions of events.  Values are ints
    (bytes), so sums across workers are exact and grouping-independent.
    """

    __slots__ = ("duration", "step", "grid", "_grid_index", "value", "_last", "integral")

    def __init__(self, duration: float, step: float):
        self.duration = duration
        self.step = step
        self.grid = [0] * (int(duration / step) + 1)
        self._grid_index = 0
        self.value = 0
        self._last = 0.0
        self.integral = 0.0

    def record(self, t: float, value: int) -> None:
        duration = self.duration
        last = self._last
        old = self.value
        if last < duration:
            capped = t if t < duration else duration
            self.integral += old * (capped - last)
            self._last = capped
        # Grid points strictly before t keep the old value; a point at
        # exactly t takes the new one (TimeSeries.value_at semantics).
        grid = self.grid
        index = self._grid_index
        count = len(grid)
        if index < count:
            step = self.step
            while index < count and index * step < t:
                grid[index] = old
                index += 1
            self._grid_index = index
        self.value = value

    def finalize(self) -> None:
        """Extend the final value through the end of the window."""
        self.record(self.duration + self.step, self.value)


class _LeanDandelionWorker:
    """Dandelion node: per-request contexts, no keep-alive state."""

    __slots__ = (
        "env", "cores_free", "queue", "committed",
        "memory_of", "latencies", "series", "completed",
    )

    def __init__(self, env, cores, memory_of, duration):
        self.env = env
        self.cores_free = cores
        self.queue = deque()
        self.committed = 0
        self.memory_of = memory_of
        self.latencies: list[float] = []
        self.series = _StepSeries(duration, GRID_STEP)
        self.completed = 0

    def _start(self, fn_index, duration, arrival) -> None:
        self.cores_free -= 1
        env = self.env
        self.committed += self.memory_of[fn_index]
        self.series.record(env._now, self.committed)
        seq = env._seq
        env._seq = seq + 1
        heappush(
            env._queue,
            (env._now + (CREATION_SECONDS + duration), seq, self, _COMPLETE, fn_index, arrival),
        )

    def _complete(self, fn_index, arrival) -> None:
        env = self.env
        self.committed -= self.memory_of[fn_index]
        self.series.record(env._now, self.committed)
        self.latencies.append(env._now - arrival)
        self.completed += 1
        self.cores_free += 1
        if self.queue:
            self._start(*self.queue.popleft())

    def _expire(self, a, b) -> None:  # pragma: no cover - dandelion never expires
        raise AssertionError("dandelion workers schedule no expiry events")


class _Sandbox:
    """One warm MicroVM; ``idle_token`` versions its keep-alive timer."""

    __slots__ = ("fn_index", "idle_token", "idle", "dead")

    def __init__(self, fn_index):
        self.fn_index = fn_index
        self.idle_token = 0
        self.idle = False
        self.dead = False


class _LeanFaasWorker:
    """Firecracker+Knative-style node with keep-alive sandbox reuse.

    The repository's one keep-alive model (Figs 1 and 10): committed
    memory covers warm (idle) and busy sandboxes, active memory only
    busy ones; a cold start pays the control-plane + restore + paging
    path, a warm start only the hot hop.  Reuse pops the most recently
    idled sandbox (LIFO), so the oldest warm sandboxes are the ones
    keep-alive reaps.
    """

    __slots__ = (
        "env", "cores_free", "queue", "committed", "active",
        "memory_of", "keep_alive", "latencies", "series", "active_series",
        "completed", "cold_starts", "idle_of",
    )

    def __init__(self, env, cores, memory_of, duration, keep_alive):
        self.env = env
        self.cores_free = cores
        self.queue = deque()
        self.committed = 0
        self.active = 0
        self.memory_of = memory_of
        self.keep_alive = keep_alive
        self.latencies: list[float] = []
        self.series = _StepSeries(duration, GRID_STEP)
        self.active_series = _StepSeries(duration, GRID_STEP)
        self.completed = 0
        self.cold_starts = 0
        self.idle_of: dict[int, list[_Sandbox]] = {}

    def _start(self, fn_index, duration, arrival) -> None:
        self.cores_free -= 1
        env = self.env
        footprint = self.memory_of[fn_index] + GUEST_OVERHEAD_BYTES
        sandbox = None
        stack = self.idle_of.get(fn_index)
        while stack:
            candidate = stack.pop()
            if not candidate.dead:
                sandbox = candidate
                break
        if sandbox is None:
            sandbox = _Sandbox(fn_index)
            self.cold_starts += 1
            self.committed += footprint
            self.series.record(env._now, self.committed)
            setup = COLD_START_SECONDS + PAGING_SECONDS_PER_MIB * (footprint / (1024 * 1024))
        else:
            setup = HOT_START_SECONDS
        sandbox.idle = False
        sandbox.idle_token += 1
        self.active += footprint
        self.active_series.record(env._now, self.active)
        seq = env._seq
        env._seq = seq + 1
        heappush(
            env._queue,
            (env._now + (setup + duration * COMPUTE_SLOWDOWN), seq, self, _COMPLETE, sandbox, arrival),
        )

    def _complete(self, sandbox, arrival) -> None:
        env = self.env
        footprint = self.memory_of[sandbox.fn_index] + GUEST_OVERHEAD_BYTES
        self.active -= footprint
        self.active_series.record(env._now, self.active)
        self.latencies.append(env._now - arrival)
        self.completed += 1
        sandbox.idle = True
        sandbox.idle_token += 1
        self.idle_of.setdefault(sandbox.fn_index, []).append(sandbox)
        seq = env._seq
        env._seq = seq + 1
        heappush(
            env._queue,
            (env._now + self.keep_alive, seq, self, _EXPIRE, sandbox, sandbox.idle_token),
        )
        self.cores_free += 1
        if self.queue:
            self._start(*self.queue.popleft())

    def _expire(self, sandbox, token) -> None:
        if sandbox.idle and not sandbox.dead and sandbox.idle_token == token:
            sandbox.dead = True
            self.committed -= self.memory_of[sandbox.fn_index] + GUEST_OVERHEAD_BYTES
            self.series.record(self.env._now, self.committed)


class ShardSim:
    """One shard: a lean event kernel over a slice of the fleet."""

    __slots__ = ("env", "workers", "worker_indices", "cores", "_by_global", "_pending")

    def __init__(self, worker_indices, config: dict):
        self.env = Environment()
        self.worker_indices = tuple(worker_indices)
        self.cores = config["cores_per_worker"]
        duration = config["duration_seconds"]
        memory_of = config["memory_of"]
        platform = config["platform"]
        self.workers = []
        for _ in self.worker_indices:
            if platform == PLATFORM_DANDELION:
                worker = _LeanDandelionWorker(self.env, self.cores, memory_of, duration)
            elif platform == PLATFORM_FAAS:
                worker = _LeanFaasWorker(
                    self.env, self.cores, memory_of, duration, config["keep_alive_seconds"]
                )
            else:
                raise ValueError(f"unknown platform {platform!r}")
            self.workers.append(worker)
        self._by_global = {
            index: worker for index, worker in zip(self.worker_indices, self.workers)
        }
        # Deliveries routed but not yet due: (time, seq, worker, fn,
        # duration, arrival), time-sorted (see run_window).
        self._pending: list[tuple] = []

    def run_window(self, records, end: float) -> None:
        """Ingest one window's delivery batch and run the kernel to ``end``.

        ``records`` is time-sorted (trace order shifted by the constant
        dispatch delay), so instead of scheduling heap events the loop
        merges the batch against the heap head.  Each delivery reserves
        one kernel sequence number *at the barrier, in batch order* —
        exactly the seqs per-delivery events would have drawn — so
        same-time ordering against completion/expiry events is
        byte-identical to the event-object formulation.
        """
        env = self.env
        queue = env._queue
        pending = self._pending
        if records:
            seq = env._seq
            by_global = self._by_global
            append = pending.append
            for delivery, worker, fn_index, duration, arrival in records:
                append((delivery, seq, by_global[worker], fn_index, duration, arrival))
                seq += 1
            env._seq = seq
        # Deliveries drive the outer loop (the batch is already sorted
        # and seq-ordered); the inner loop drains every heap event that
        # sorts before the delivery at hand.  Same event order as a
        # single merged loop, but each delivery tuple is fetched and
        # compared once instead of once per interleaved event.
        i = 0
        n = len(pending)
        while i < n:
            d = pending[i]
            d_time = d[0]
            if d_time > end:
                break
            d_seq = d[1]
            while queue:
                e = queue[0]
                e_time = e[0]
                if e_time > d_time or (e_time == d_time and e[1] > d_seq):
                    break
                heappop(queue)
                env._now = e_time
                if e[3]:
                    e[2]._expire(e[4], e[5])
                else:
                    e[2]._complete(e[4], e[5])
            i += 1
            env._now = d_time
            worker = d[2]
            if worker.cores_free:
                worker._start(d[3], d[4], d[5])
            else:
                worker.queue.append((d[3], d[4], d[5]))
        if i:
            del pending[:i]
        while queue:
            e = queue[0]
            e_time = e[0]
            if e_time > end:
                break
            heappop(queue)
            env._now = e_time
            if e[3]:
                e[2]._expire(e[4], e[5])
            else:
                e[2]._complete(e[4], e[5])
        env._now = end

    def outstanding(self) -> list[int]:
        """Queued + in-service count per worker, local order."""
        return [
            (self.cores - w.cores_free) + len(w.queue) for w in self.workers
        ]

    def drain_latencies(self) -> list[float]:
        """This window's completion latencies, worker order; clears them."""
        drained: list[float] = []
        for worker in self.workers:
            drained.extend(worker.latencies)
            worker.latencies.clear()
        return drained

    @property
    def events(self) -> int:
        return self.env._seq

    def final_summary(self) -> dict:
        """Per-worker aggregates for the end-of-run merge."""
        workers = []
        for worker in self.workers:
            worker.series.finalize()
            entry = {
                "completed": worker.completed,
                "committed_integral": worker.series.integral,
                "committed_grid": worker.series.grid,
            }
            active = getattr(worker, "active_series", None)
            if active is not None:
                active.finalize()
                entry["active_integral"] = active.integral
                entry["active_grid"] = active.grid
                entry["cold_starts"] = worker.cold_starts
            workers.append(entry)
        return {"workers": workers, "events": self.env._seq}
