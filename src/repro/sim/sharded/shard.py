"""One shard of the partitioned cluster simulation.

At a barrier a :class:`ShardSim` takes one routed delivery list per
worker and runs each worker's window in one loop: the deliveries due
by the window end in time order, then everything else up to the end.
It reports per-worker outstanding counts plus the window's completion
latencies.

A worker is a FIFO run-to-completion core pool, modelled numerically
and without an event kernel: a request starts at ``max(delivery,
earliest free core)``, and ``events`` is a count by definition
(docs/simulation.md, "The shard workers", has the recursion, its tie
rule and its oracles).  A worker's results depend on its own delivery
sequence only, so grouping workers into shards cannot change them.

The workers define no cost of their own: the Dandelion worker charges
``backends.costs.REPLAY_CREATION_SECONDS`` per request, the FaaS worker
``baselines.specs.FIRECRACKER_SNAPSHOT`` plus that module's Knative
orchestration and MicroVM guest overhead.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict, deque
from heapq import heappop, heappush
from operator import itemgetter

from ...backends.costs import REPLAY_CREATION_SECONDS
from ...baselines.specs import (
    FIRECRACKER_SNAPSHOT,
    KNATIVE_ORCHESTRATION_SECONDS,
    MICROVM_GUEST_OVERHEAD_BYTES,
    MiB,
)

__all__ = ["ShardSim", "PLATFORM_DANDELION", "PLATFORM_FAAS"]

PLATFORM_DANDELION = "dandelion"
PLATFORM_FAAS = "faas"

# Resample grid of the committed/active memory series, in seconds.
GRID_STEP = 60.0


class _StepSeries:
    """Per-worker step-function accumulator over [0, duration].

    Instead of storing every point it folds each change into the
    time-weighted integral and a fixed resample grid on the fly, so
    memory stays O(grid) across millions of events.  Values are ints
    (bytes), so sums across workers are exact and grouping-independent.

    The worker loops hold ``integral``, ``last`` and ``bound`` in locals
    for a window: a change at ``t < bound`` only adds ``old * (t -
    last)`` to the integral, any other goes through :meth:`fold`.
    """

    __slots__ = ("duration", "step", "grid", "_grid_index", "value", "last", "integral", "bound")

    def __init__(self, duration: float, step: float):
        self.duration = duration
        self.step = step
        self.grid = [0] * (int(duration / step) + 1)
        self._grid_index = 0
        self.value = 0
        self.last = 0.0
        self.integral = 0.0
        self.bound = 0.0  # the first grid point

    def fold(self, t: float, old: int, integral: float, last: float) -> tuple:
        """Fold a change at ``t`` away from ``old``; returns the new
        ``(integral, last, bound)``."""
        duration = self.duration
        if last < duration:
            capped = t if t < duration else duration
            integral += old * (capped - last)
            last = capped
        # Grid points strictly before t keep the old value; a point at
        # exactly t takes the new one (the latest recording at or before
        # the point decides).
        grid = self.grid
        index = self._grid_index
        count = len(grid)
        step = self.step
        while index < count and index * step < t:
            grid[index] = old
            index += 1
        self._grid_index = index
        if not last < duration:
            return integral, last, -math.inf
        return integral, last, min(index * step if index < count else math.inf, duration)

    def record(self, t: float, value: int) -> None:
        self.integral, self.last, self.bound = self.fold(t, self.value, self.integral, self.last)
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
    ``later`` as ``(time, latency)`` until its own window reports it;
    a delivery past the window end waits in ``pending``.
    """

    __slots__ = (
        "cores", "busy", "later", "pending", "memory_of", "latencies", "series", "completed",
        "committed", "_starts",
    )

    def __init__(self, config):
        self.cores = config["cores_per_worker"]
        self.busy: list[tuple] = []
        self.later: deque = deque()
        self.pending: list[tuple] = []
        self.memory_of = config["memory_of"]
        self.latencies: list[float] = []
        self.series = _StepSeries(config["duration_seconds"], GRID_STEP)
        self.completed = 0
        self.committed = 0
        self._starts = 0


class _DandelionWorker(_CorePool):
    """Dandelion node: per-request contexts, no keep-alive state."""

    __slots__ = ()
    events_per_invocation = 2

    def run_window(self, deliveries, end: float) -> None:
        """Run the due ``(delivery, fn_index, duration, arrival)``
        deliveries in order, then the window ``end``: a last delivery
        that applies everything at or before it and starts nothing."""
        pending = self.pending
        pending += deliveries
        due = bisect_right(pending, end, key=itemgetter(0))
        busy, cores, memory_of, later = self.busy, self.cores, self.memory_of, self.later
        report = self.latencies.append
        while later and later[0][0] <= end:
            report(later.popleft()[1])
        committed, completed, starts = self.committed, self.completed, self._starts
        series = self.series
        integral, last, bound = series.integral, series.last, series.bound
        creation = REPLAY_CREATION_SECONDS
        for t, fn_index, duration, arrival in pending[:due] + [(end, None, 0.0, 0.0)]:
            start = t
            while busy and (busy[0][0] <= t or len(busy) == cores and fn_index is not None):
                completion, _, memory, began = heappop(busy)
                if completion < bound:
                    integral += committed * (completion - last)
                    last = completion
                else:
                    integral, last, bound = series.fold(completion, committed, integral, last)
                committed -= memory
                completed += 1
                if completion <= end:
                    report(completion - began)
                else:
                    later.append((completion, completion - began))
                if completion > start:
                    start = completion
            if fn_index is None:
                break
            memory = memory_of[fn_index]
            if start < bound:
                integral += committed * (start - last)
                last = start
            else:
                integral, last, bound = series.fold(start, committed, integral, last)
            committed += memory
            # Same-instant completions pop in start order.
            starts += 1
            heappush(busy, (start + (creation + duration), starts, memory, arrival))
        del pending[:due]
        series.integral, series.last, series.bound, series.value = integral, last, bound, committed
        self.committed, self.completed, self._starts = committed, completed, starts


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
        self.idle_of: defaultdict = defaultdict(list)

    def run_window(self, deliveries, end: float) -> None:
        """:meth:`_DandelionWorker.run_window` with sandboxes: a start
        reuses an idle one or creates it cold, a completion idles it
        under a keep-alive timer, an expired timer reaps it."""
        pending = self.pending
        pending += deliveries
        due = bisect_right(pending, end, key=itemgetter(0))
        busy, cores, memory_of, later = self.busy, self.cores, self.memory_of, self.later
        report = self.latencies.append
        while later and later[0][0] <= end:
            report(later.popleft()[1])
        expiring, idle_of, keep_alive = self.expiring, self.idle_of, self.keep_alive
        committed, active, completed, starts = self.committed, self.active, self.completed, self._starts
        cold_starts = self.cold_starts
        series = self.series
        integral, last, bound = series.integral, series.last, series.bound
        active_series = self.active_series
        active_integral, active_last, active_bound = (
            active_series.integral, active_series.last, active_series.bound
        )
        spec = FIRECRACKER_SNAPSHOT
        hot_start, slowdown = spec.hot_start_seconds, spec.compute_slowdown
        # (restore + orchestration) + paging: the order the figures were drawn in.
        cold_start = spec.cold_start_seconds + KNATIVE_ORCHESTRATION_SECONDS
        paging_per_mib = spec.cold_paging_seconds_per_mib
        for t, fn_index, duration, arrival in pending[:due] + [(end, None, 0.0, 0.0)]:
            start = t
            while busy and (busy[0][0] <= t or len(busy) == cores and fn_index is not None):
                completion, _, sandbox, began = heappop(busy)
                if completion < active_bound:
                    active_integral += active * (completion - active_last)
                    active_last = completion
                else:
                    active_integral, active_last, active_bound = active_series.fold(
                        completion, active, active_integral, active_last
                    )
                active -= sandbox.footprint
                sandbox.token += 1
                idle_of[sandbox.fn_index].append(sandbox)
                expiring.append((completion + keep_alive, sandbox, sandbox.token))
                completed += 1
                if completion <= end:
                    report(completion - began)
                else:
                    later.append((completion, completion - began))
                if completion > start:
                    start = completion
            if fn_index is None:  # the barrier applies every timer up to the end
                start = math.nextafter(end, math.inf)
            while expiring and expiring[0][0] < start:
                when, sandbox, token = expiring.popleft()
                if sandbox.token == token:  # idle ever since the completion that set it
                    idle_of[sandbox.fn_index].remove(sandbox)
                    if when < bound:
                        integral += committed * (when - last)
                        last = when
                    else:
                        integral, last, bound = series.fold(when, committed, integral, last)
                    committed -= sandbox.footprint
            if fn_index is None:
                break
            stack = idle_of.get(fn_index)
            if stack:
                sandbox = stack.pop()
                setup = hot_start
            else:
                footprint = memory_of[fn_index] + MICROVM_GUEST_OVERHEAD_BYTES
                sandbox = _Sandbox(fn_index, footprint)
                cold_starts += 1
                if start < bound:
                    integral += committed * (start - last)
                    last = start
                else:
                    integral, last, bound = series.fold(start, committed, integral, last)
                committed += footprint
                setup = cold_start + paging_per_mib * (footprint / MiB)
            sandbox.token += 1
            if start < active_bound:
                active_integral += active * (start - active_last)
                active_last = start
            else:
                active_integral, active_last, active_bound = active_series.fold(
                    start, active, active_integral, active_last
                )
            active += sandbox.footprint
            starts += 1
            heappush(busy, (start + (setup + duration * slowdown), starts, sandbox, arrival))
        del pending[:due]
        series.integral, series.last, series.bound, series.value = integral, last, bound, committed
        active_series.integral, active_series.last, active_series.bound, active_series.value = (
            active_integral, active_last, active_bound, active
        )
        self.committed, self.active, self.completed, self._starts = committed, active, completed, starts
        self.cold_starts = cold_starts


class ShardSim:
    """One shard: the workers of a slice of the fleet."""

    __slots__ = ("workers", "_events_per_invocation", "events")

    def __init__(self, worker_indices, config: dict):
        worker_class = _FaasWorker if config["platform"] == PLATFORM_FAAS else _DandelionWorker
        self.workers = [worker_class(config) for _ in worker_indices]
        self._events_per_invocation = worker_class.events_per_invocation
        self.events = 0

    def run_window(self, deliveries, end: float) -> None:
        """Run one window: ``deliveries[i]`` is local worker ``i``'s routed
        list of ``(delivery, fn_index, duration, arrival)`` tuples in
        trace order; every worker advances to ``end``."""
        routed = 0
        for worker, delivered in zip(self.workers, deliveries):
            routed += len(delivered)
            worker.run_window(delivered, end)
        self.events += self._events_per_invocation * routed

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
