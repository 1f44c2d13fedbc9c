"""The heap router against ``LeastOutstanding.decide`` on the live snapshot.

``WindowedRouter`` routes least-loaded through a heap of ``(estimate,
worker)``; the generic policy scans the snapshot's candidates.  Drawn
fleets, estimate vectors full of ties, arrival counts and several
windows with barrier refreshes between them must give the same decision
sequence and leave the same estimates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.sharding import ShardPlan
from repro.dispatcher.windowed import WindowedRouter
from repro.sched import ClusterSnapshot, make_routing_policy
from repro.sim.distributions import Rng

from .test_windowed import decisions


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_heap_router_decides_as_least_outstanding(data):
    workers = data.draw(st.integers(1, 64), label="workers")
    plan = ShardPlan(workers, data.draw(st.integers(1, 4), label="shards"))
    router = WindowedRouter(plan)
    assert router._fast_least
    policy = make_routing_policy("least_loaded", Rng(0))
    estimates = [0] * workers
    snapshot = ClusterSnapshot(
        healthy=tuple(range(workers)),
        worker_count=workers,
        health=[True] * workers,
        in_flight=estimates,
    )
    for _ in range(data.draw(st.integers(1, 4), label="windows")):
        if data.draw(st.booleans(), label="refresh"):
            reports = data.draw(
                st.lists(st.integers(0, 4), min_size=workers, max_size=workers),
                label="outstanding",
            )
            router.refresh([[reports[w] for w in plan.workers_of(s)] for s in range(plan.shard_count)])
            estimates[:] = reports
        count = data.draw(st.integers(0, 500), label="arrivals")
        deliveries = router.route_window([(0.001 * i, i, 0.1) for i in range(count)])
        expected = []
        for _ in range(count):
            worker = policy.decide(snapshot)
            estimates[worker] += 1
            expected.append(worker)
        assert decisions(deliveries) == expected
        assert router._estimates == estimates
