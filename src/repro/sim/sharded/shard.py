"""One shard of the partitioned cluster simulation.

At a barrier a :class:`ShardSim` ingests the window's delivery batch,
hands each delivery due by the window end to its worker in time order,
advances every worker to the end, and reports per-worker outstanding
counts plus the window's completion latencies.

A worker is a FIFO run-to-completion core pool, modelled numerically
and without an event kernel: a request starts at ``max(delivery,
earliest free core)``, and ``events`` is a count by definition
(docs/simulation.md, "The shard workers", has the recursion, its tie
rule and its oracles).  A worker's results depend on its own delivery
sequence only, so grouping workers into shards cannot change them.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

__all__ = ["ShardSim", "PLATFORM_DANDELION", "PLATFORM_FAAS"]

PLATFORM_DANDELION = "dandelion"
PLATFORM_FAAS = "faas"

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


class _StepSeries:
    """Per-worker step-function accumulator over [0, duration].

    Instead of storing every point it folds each change into the
    time-weighted integral and a fixed resample grid on the fly, so
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
        # exactly t takes the new one (the latest recording at or before
        # the point decides).
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


class _CorePool:
    """A FIFO run-to-completion pool: ``busy`` is a heap of at most ``cores``
    pending ``(time, start number, payload, arrival)`` completions.

    A delivery applies the completions at or before it; if every core is
    still busy it applies the earliest, whose time is the start.  Starts
    and applied completions are monotone, so the memory series are fed
    in time order.  A completion applied past the window end waits in
    ``later`` as ``(time, latency)`` until its own window reports it.
    """

    __slots__ = (
        "cores", "busy", "later", "memory_of", "latencies", "series", "completed", "committed",
        "_starts",
    )

    def __init__(self, config):
        self.cores = config["cores_per_worker"]
        self.busy: list[tuple] = []
        self.later: deque = deque()
        self.memory_of = config["memory_of"]
        self.latencies: list[float] = []
        self.series = _StepSeries(config["duration_seconds"], GRID_STEP)
        self.completed = 0
        self.committed = 0
        self._starts = 0

    def deliver(self, t, fn_index, duration, arrival, end) -> None:
        """Start a request delivered at ``t`` once a core is free."""
        busy = self.busy
        while busy and busy[0][0] <= t:
            self._complete(end)
        start = self._complete(end) if len(busy) == self.cores else t
        completion, payload = self._start(start, fn_index, duration)
        # Same-instant completions pop in start order.
        self._starts += 1
        heappush(busy, (completion, self._starts, payload, arrival))

    def _complete(self, end: float) -> float:
        completion, _, payload, arrival = heappop(self.busy)
        self._release(completion, payload)
        self.completed += 1
        if completion <= end:
            self.latencies.append(completion - arrival)
        else:
            self.later.append((completion, completion - arrival))
        return completion

    def advance(self, end: float) -> None:
        """Apply and report everything at or before the window ``end``."""
        later = self.later
        while later and later[0][0] <= end:
            self.latencies.append(later.popleft()[1])
        busy = self.busy
        while busy and busy[0][0] <= end:
            self._complete(end)


class _DandelionWorker(_CorePool):
    """Dandelion node: per-request contexts, no keep-alive state."""

    __slots__ = ()
    events_per_invocation = 2

    def _start(self, start, fn_index, duration):
        self.committed += self.memory_of[fn_index]
        self.series.record(start, self.committed)
        return start + (CREATION_SECONDS + duration), fn_index

    def _release(self, completion, fn_index) -> None:
        self.committed -= self.memory_of[fn_index]
        self.series.record(completion, self.committed)


class _Sandbox:
    __slots__ = ("fn_index", "footprint", "token")

    def __init__(self, fn_index, footprint):
        self.fn_index = fn_index
        self.footprint = footprint
        self.token = 0  # bumped by every start and completion


class _FaasWorker(_CorePool):
    """Firecracker+Knative-style node with keep-alive sandbox reuse.

    The repository's one keep-alive model (Figs 1 and 10): committed
    memory covers warm (idle) and busy sandboxes, active memory only
    busy ones; a cold start pays the control-plane + restore + paging
    path, a warm start only the hot hop.  Reuse is LIFO, so keep-alive
    reaps the longest-idle sandbox, the bottom of its function's stack.
    ``expiring`` holds ``(time, sandbox, token)`` timers in time order.
    Tie rule: a timer at the instant of a start does not reap a sandbox
    that start may reuse; a barrier applies every timer up to its end.
    """

    __slots__ = ("keep_alive", "expiring", "active", "active_series", "cold_starts", "idle_of")
    events_per_invocation = 3

    def __init__(self, config):
        super().__init__(config)
        self.keep_alive = config["keep_alive_seconds"]
        self.expiring: deque = deque()
        self.active = 0
        self.active_series = _StepSeries(config["duration_seconds"], GRID_STEP)
        self.cold_starts = 0
        self.idle_of: dict[int, list[_Sandbox]] = {}

    def _start(self, start, fn_index, duration):
        expiring = self.expiring
        while expiring and expiring[0][0] < start:
            self._expire()
        stack = self.idle_of.get(fn_index)
        if stack:
            sandbox = stack.pop()
            setup = HOT_START_SECONDS
        else:
            footprint = self.memory_of[fn_index] + GUEST_OVERHEAD_BYTES
            sandbox = _Sandbox(fn_index, footprint)
            self.cold_starts += 1
            self.committed += footprint
            self.series.record(start, self.committed)
            setup = COLD_START_SECONDS + PAGING_SECONDS_PER_MIB * (footprint / (1024 * 1024))
        sandbox.token += 1
        self.active += sandbox.footprint
        self.active_series.record(start, self.active)
        return start + (setup + duration * COMPUTE_SLOWDOWN), sandbox

    def _release(self, completion, sandbox) -> None:
        self.active -= sandbox.footprint
        self.active_series.record(completion, self.active)
        sandbox.token += 1
        self.idle_of.setdefault(sandbox.fn_index, []).append(sandbox)
        self.expiring.append((completion + self.keep_alive, sandbox, sandbox.token))

    def _expire(self) -> None:
        when, sandbox, token = self.expiring.popleft()
        if sandbox.token == token:  # idle ever since the completion that set it
            self.idle_of[sandbox.fn_index].remove(sandbox)
            self.committed -= sandbox.footprint
            self.series.record(when, self.committed)

    def advance(self, end: float) -> None:
        super().advance(end)
        expiring = self.expiring
        while expiring and expiring[0][0] <= end:
            self._expire()


class ShardSim:
    """One shard: the workers of a slice of the fleet."""

    __slots__ = ("workers", "_by_global", "_pending", "_events_per_invocation", "events")

    def __init__(self, worker_indices, config: dict):
        worker_class = _FaasWorker if config["platform"] == PLATFORM_FAAS else _DandelionWorker
        self.workers = [worker_class(config) for _ in worker_indices]
        self._by_global = dict(zip(worker_indices, self.workers))
        self._events_per_invocation = worker_class.events_per_invocation
        # Routed deliveries not yet due.  Batches are time-sorted (trace
        # order plus a constant dispatch delay): appending keeps the order.
        self._pending: list[tuple] = []
        self.events = 0

    def run_window(self, records, end: float) -> None:
        """Ingest one window's delivery batch and advance every worker to ``end``."""
        pending = self._pending
        pending += records
        self.events += self._events_per_invocation * len(records)
        by_global = self._by_global
        due = 0
        for delivery, worker, fn_index, duration, arrival in pending:
            if delivery > end:
                break
            by_global[worker].deliver(delivery, fn_index, duration, arrival, end)
            due += 1
        del pending[:due]
        for worker in self.workers:
            worker.advance(end)

    def outstanding(self) -> list[int]:
        """Queued + in-service count per worker, local order."""
        return [len(w.busy) + len(w.later) for w in self.workers]

    def drain_latencies(self) -> list[float]:
        """This window's completion latencies, worker order; clears them."""
        drained: list[float] = []
        for worker in self.workers:
            drained.extend(worker.latencies)
            worker.latencies.clear()
        return drained

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
        return {"workers": workers, "events": self.events}
