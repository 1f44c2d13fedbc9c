"""Window-batched router: fast-path parity, estimates, delivery batches."""

import pytest

from repro.cluster.sharding import ShardPlan
from repro.dispatcher.windowed import DISPATCH_DELAY_SECONDS, WindowedRouter
from repro.sched import ClusterSnapshot, make_routing_policy
from repro.sim.distributions import Rng


def test_least_loaded_fast_path_matches_policy_decide():
    # The router's C-level argmin (estimates.index(min(...))) must make
    # exactly the decisions the generic LeastOutstanding policy makes
    # against the same evolving estimate vector.
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

    arrivals = [(0.01 * i, i % 5, 0.25) for i in range(200)]
    batches = router.route_window(arrivals)
    expected = []
    for _ in arrivals:
        worker = policy.decide(snapshot)
        estimates[worker] += 1
        expected.append(worker)
    assert router._estimates == estimates

    routed = sorted(
        (record for batch in batches for record in batch),
        key=lambda record: record[4],
    )
    assert [record[1] for record in routed] == expected


def test_route_window_emits_delivery_tuples():
    router = WindowedRouter(ShardPlan(4, 2))
    arrivals = [(1.0, 9, 0.5), (1.1, 3, 0.25)]
    batches = router.route_window(arrivals)
    assert len(batches) == 2
    records = [record for batch in batches for record in batch]
    assert len(records) == 2
    for (delivery, worker, fn_index, duration, arrival), (t, fn, d) in zip(
        sorted(records, key=lambda r: r[4]), arrivals
    ):
        assert delivery == t + DISPATCH_DELAY_SECONDS
        assert arrival == t
        assert fn_index == fn
        assert duration == d
        assert ShardPlan(4, 2).shard_of(worker) in (0, 1)


def test_routed_worker_lands_in_its_shard_payload():
    plan = ShardPlan(6, 3)
    router = WindowedRouter(plan)
    batches = router.route_window([(0.1 * i, 0, 0.1) for i in range(30)])
    for shard, batch in enumerate(batches):
        for record in batch:
            assert plan.shard_of(record[1]) == shard


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
    batches = router.route_window([(0.0, 0, 0.1)] * 8)
    workers = [record[1] for batch in batches for record in batch]
    assert sorted(workers) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_ties_break_by_lowest_worker_index():
    router = WindowedRouter(ShardPlan(3, 1))
    (batch,) = router.route_window([(0.0, 0, 0.1)] * 3)
    workers = [record[1] for record in batch]
    assert workers == [0, 1, 2]
