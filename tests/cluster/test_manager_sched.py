"""Cluster manager ↔ repro.sched integration: snapshots, policy objects,
incremental healthy-ring maintenance, and locality routing end-to-end."""

import pytest

from repro.cluster import ClusterManager
from repro.functions import compute_function
from repro.sched import JSQ, RoutingPolicy
from repro.sim import Rng
from repro.worker import WorkerConfig

COMPOSITION = """
composition sched_echo_comp {
    compute e uses sched_echo in(data) out(result);
    input data -> e.data;
    output e.result -> result;
}
"""


@compute_function(name="sched_echo", compute_cost=2e-3)
def echo(vfs):
    vfs.write_bytes("/out/result/data", vfs.read_bytes("/in/data/data"))


def make_cluster(workers=2, policy="least_loaded", cores=4):
    cluster = ClusterManager(
        worker_count=workers,
        worker_config=WorkerConfig(total_cores=cores, control_plane_enabled=False),
        policy=policy,
    )
    cluster.register_function(echo)
    cluster.register_composition(COMPOSITION)
    return cluster


# -- policy objects and names -------------------------------------------------


def test_policy_object_injection():
    cluster = make_cluster(policy=JSQ(rng=Rng(3)))
    assert isinstance(cluster.routing_policy, JSQ)
    assert cluster.policy == "jsq"  # the logged name follows the object
    result = cluster.invoke_and_run("sched_echo_comp", {"data": b"x"})
    assert result.ok


def test_custom_policy_subclass_routes():
    class AlwaysFirst(RoutingPolicy):
        name = "always_first"

        def decide(self, snapshot):
            return snapshot.healthy[0]

    cluster = make_cluster(workers=3, policy=AlwaysFirst())
    for _ in range(4):
        assert cluster.invoke_and_run("sched_echo_comp", {"data": b"x"}).ok
    assert cluster.per_worker_invocations[0] == 4
    assert cluster.per_worker_invocations[1] == 0


def test_string_policies_build_matching_objects():
    for name in ("round_robin", "least_loaded", "random", "jsq", "locality"):
        cluster = ClusterManager(worker_count=2, policy=name)
        assert cluster.routing_policy.name == name
        assert cluster.policy == name


# -- snapshot contract --------------------------------------------------------


def test_snapshot_reflects_fleet_state():
    cluster = make_cluster(workers=3)
    view = cluster.snapshot("sched_echo_comp")
    assert view.healthy == (0, 1, 2)
    assert view.worker_count == 3
    assert view.composition_functions == ("sched_echo",)
    assert all(view.in_flight(i) == 0 for i in range(3))


def test_snapshot_warm_functions_track_dispatcher_cache():
    cluster = make_cluster(workers=2)
    before = cluster.snapshot("sched_echo_comp")
    assert all(before.warm_count(i) == 0 for i in range(2))
    cluster.invoke_and_run("sched_echo_comp", {"data": b"x"})
    after = cluster.snapshot("sched_echo_comp")
    # Exactly the worker that served the invocation is warm now.
    assert sorted(after.warm_count(i) for i in range(2)) == [0, 1]


def test_snapshot_shares_healthy_ring_tuple():
    # O(1) construction: the fault-free fast path must hand out the
    # incrementally-maintained tuple, not rebuild it per decision.
    cluster = make_cluster(workers=3)
    assert cluster.snapshot().healthy is cluster.snapshot().healthy


# -- incremental healthy-ring maintenance -------------------------------------


def test_healthy_ring_updates_on_fail_restore_add():
    cluster = make_cluster(workers=3)
    assert cluster.snapshot().healthy == (0, 1, 2)
    cluster.fail_worker(1)
    assert cluster.snapshot().healthy == (0, 2)
    assert cluster.healthy_worker_count == 2
    cluster.restore_worker(1)
    assert cluster.snapshot().healthy == (0, 1, 2)
    cluster.add_worker()
    assert cluster.snapshot().healthy == (0, 1, 2, 3)
    assert cluster.healthy_worker_count == 4


def test_routing_skips_failed_worker():
    cluster = make_cluster(workers=2, policy="round_robin")
    cluster.fail_worker(0)
    for _ in range(3):
        assert cluster.invoke_and_run("sched_echo_comp", {"data": b"x"}).ok
    assert cluster.per_worker_invocations[0] == 0
    assert cluster.per_worker_invocations[1] == 3


# -- locality end-to-end ------------------------------------------------------


def test_locality_concentrates_traffic_on_warm_worker():
    cluster = make_cluster(workers=4, policy="locality")
    for _ in range(8):
        assert cluster.invoke_and_run("sched_echo_comp", {"data": b"x"}).ok
    counts = [cluster.per_worker_invocations[i] for i in range(4)]
    # Sequential requests: the first seeds one cache, the rest follow it.
    assert max(counts) == 8
    assert sum(counts) == 8


def test_locality_spills_off_failed_warm_worker():
    cluster = make_cluster(workers=2, policy="locality")
    assert cluster.invoke_and_run("sched_echo_comp", {"data": b"x"}).ok
    warm_index = max(range(2), key=lambda i: cluster.per_worker_invocations[i])
    cluster.fail_worker(warm_index)
    assert cluster.invoke_and_run("sched_echo_comp", {"data": b"x"}).ok
    assert cluster.per_worker_invocations[1 - warm_index] == 1
