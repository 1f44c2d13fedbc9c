"""Window-batched router: per-worker delivery lists, estimates, refresh."""

from repro.cluster.sharding import ShardPlan
from repro.dispatcher.windowed import DISPATCH_DELAY_SECONDS, WindowedRouter
from repro.sched import ClusterSnapshot, make_routing_policy
from repro.sim.distributions import Rng


def decisions(deliveries):
    """The worker of each arrival, in trace order, from per-worker lists
    whose ``fn_index`` is the arrival's position in its window."""
    decided = {}
    for worker, routed in enumerate(deliveries):
        for _, position, _, _ in routed:
            decided[position] = worker
    return [decided[position] for position in range(len(decided))]


def test_least_loaded_fast_path_matches_policy_decide():
    # The router's heap of (estimate, worker) must make exactly the
    # decisions the generic LeastOutstanding policy makes against the
    # same evolving estimate vector.
    workers = 7
    router = WindowedRouter(ShardPlan(workers, 3))
    assert router._fast_least

    policy = make_routing_policy("least_loaded", Rng(0))
    estimates = [0] * workers
    snapshot = ClusterSnapshot(
        healthy=tuple(range(workers)),
        worker_count=workers,
        health=[True] * workers,
        in_flight=estimates,
    )

    arrivals = [(0.01 * i, i, 0.25) for i in range(200)]
    deliveries = router.route_window(arrivals)
    expected = []
    for _ in arrivals:
        worker = policy.decide(snapshot)
        estimates[worker] += 1
        expected.append(worker)
    assert router._estimates == estimates
    assert decisions(deliveries) == expected


def test_route_window_emits_delivery_tuples():
    router = WindowedRouter(ShardPlan(4, 2))
    arrivals = [(1.0, 9, 0.5), (1.1, 3, 0.25)]
    deliveries = router.route_window(arrivals)
    assert len(deliveries) == 4
    records = sorted((record for routed in deliveries for record in routed), key=lambda r: r[3])
    assert len(records) == 2
    for (delivery, fn_index, duration, arrival), (t, fn, d) in zip(records, arrivals):
        assert delivery == t + DISPATCH_DELAY_SECONDS
        assert arrival == t
        assert fn_index == fn
        assert duration == d


def test_each_worker_list_is_in_trace_order():
    router = WindowedRouter(ShardPlan(6, 3))
    deliveries = router.route_window([(0.1 * i, i, 0.1) for i in range(30)])
    for routed in deliveries:
        positions = [record[1] for record in routed]
        assert positions == sorted(positions)
    assert sum(len(routed) for routed in deliveries) == 30


def test_routed_worker_lands_in_its_shard_payload():
    # The coordinator hands each shard the lists of the workers it owns;
    # merging the payloads back gives the router's global order.
    plan = ShardPlan(6, 3)
    deliveries = WindowedRouter(plan).route_window([(0.1 * i, i, 0.1) for i in range(30)])
    payloads = [[deliveries[w] for w in plan.workers_of(s)] for s in range(3)]
    assert plan.merge(payloads) == deliveries


def test_refresh_replaces_estimates_in_global_order():
    plan = ShardPlan(5, 2)
    router = WindowedRouter(plan)
    router.route_window([(0.0, 0, 1.0)] * 5)
    assert sum(router._estimates) == 5
    # Shard 0 owns workers 0,2,4; shard 1 owns 1,3.
    router.refresh([[7, 8, 9], [1, 2]])
    assert router._estimates == [7, 1, 8, 2, 9]


def test_non_default_policy_takes_generic_path():
    router = WindowedRouter(ShardPlan(4, 2), policy="round_robin")
    assert not router._fast_least
    deliveries = router.route_window([(0.0, 0, 0.1)] * 8)
    assert [len(routed) for routed in deliveries] == [2, 2, 2, 2]
    assert router._estimates == [2, 2, 2, 2]


def test_ties_break_by_lowest_worker_index():
    router = WindowedRouter(ShardPlan(3, 1))
    assert decisions(router.route_window([(0.0, i, 0.1) for i in range(3)])) == [0, 1, 2]
    router.refresh([[4, 2, 2]])
    assert decisions(router.route_window([(1.0, i, 0.1) for i in range(4)])) == [1, 2, 1, 2]
