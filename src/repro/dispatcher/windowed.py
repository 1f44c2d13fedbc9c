"""Window-batched routing for the sharded simulator.

In the sharded engine the dispatcher only sees the cluster at window
boundaries: each shard reports its workers' outstanding counts at the
barrier, the reports are merged into one fleet-wide view (see
:class:`~repro.cluster.sharding.ShardPlan`), and every arrival of the
next window is routed against that view through the ordinary
``repro.sched`` policy machinery — the same immutable
:class:`~repro.sched.snapshots.ClusterSnapshot` contract the live
cluster manager uses, which is exactly why routing needs no access to
shard-local state.

Between refreshes the router tracks its own decisions: each routed
invocation increments the target's outstanding estimate, so a burst
arriving within one window spreads over the fleet instead of piling
onto the worker that looked emptiest at the barrier.  The estimate is
replaced wholesale by the next barrier report (completions come back
as decrements implicitly).

Determinism: the router consumes arrivals in trace order and policies
break ties by worker index, so the decision sequence depends only on
the trace and the barrier reports — not on the shard count.
"""

from __future__ import annotations

from heapq import heapify, heapreplace

from ..cluster.sharding import ShardPlan
from ..sched import ClusterSnapshot, LeastOutstanding, make_routing_policy
from ..sim.distributions import Rng

__all__ = ["WindowedRouter", "DISPATCH_DELAY_SECONDS"]

# Cluster-manager dispatch delay: the coordinator's conservative
# lookahead (docs/simulation.md).
DISPATCH_DELAY_SECONDS = 0.0005


class WindowedRouter:
    """Routes one window of arrivals at a time over a merged fleet view."""

    __slots__ = ("_plan", "_policy", "_estimates", "_snapshot", "_fast_least")

    def __init__(self, plan: ShardPlan, policy: str = "least_loaded", seed: int = 0):
        worker_count = plan.worker_count
        self._plan = plan
        self._policy = make_routing_policy(policy, Rng(seed))
        # Least-outstanding over a fault-free fleet is the head of a heap
        # of ``(estimate, worker)``: the lowest estimate, ties to the
        # lowest index — ``policy.decide``'s choice (ascending healthy
        # tuple) at one ``heapreplace`` per arrival; pinned by a property.
        self._fast_least = type(self._policy) is LeastOutstanding
        self._estimates = [0] * worker_count
        # One long-lived snapshot: `healthy`/`health` never change (the
        # sharded engine is fault-free) and `in_flight` references the
        # live estimate list, which only this router mutates.
        self._snapshot = ClusterSnapshot(
            healthy=tuple(range(worker_count)),
            worker_count=worker_count,
            health=[True] * worker_count,
            in_flight=self._estimates,
        )

    def refresh(self, per_shard_outstanding: "list[list[int]]") -> None:
        """Replace estimates with the barrier reports (merged globally)."""
        self._estimates[:] = self._plan.merge(per_shard_outstanding)

    def route_window(self, arrivals) -> "list[list[tuple]]":
        """Route one window of ``(time, fn_index, duration)`` arrivals.

        Returns one delivery list per worker, global order, of
        ``(delivery_time, fn_index, duration, arrival_time)`` tuples in
        trace order, delivery being arrival plus
        :data:`DISPATCH_DELAY_SECONDS` (the conservative lookahead:
        nothing routed in this window can take effect earlier than that).
        """
        dispatch_delay = DISPATCH_DELAY_SECONDS
        estimates = self._estimates
        deliveries = [[] for _ in estimates]
        if self._fast_least:
            heap = [(estimate, worker) for worker, estimate in enumerate(estimates)]
            heapify(heap)
            for t, fn_index, duration in arrivals:
                estimate, worker = heap[0]
                heapreplace(heap, (estimate + 1, worker))
                deliveries[worker].append((t + dispatch_delay, fn_index, duration, t))
            for estimate, worker in heap:
                estimates[worker] = estimate
            return deliveries
        decide = self._policy.decide
        snapshot = self._snapshot
        for t, fn_index, duration in arrivals:
            worker = decide(snapshot)
            if worker is None:  # fleet is never empty here
                raise RuntimeError("routing policy declined a fault-free fleet")
            estimates[worker] += 1
            deliveries[worker].append((t + dispatch_delay, fn_index, duration, t))
        return deliveries
