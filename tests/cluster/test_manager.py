"""Tests for the Dirigent-like cluster manager."""

import pytest

from repro.cluster import ROUTING_POLICIES, ClusterManager
from repro.composition.registry import RegistryError
from repro.frontend import http_frontend
from repro.functions import compute_function
from repro.worker import WorkerConfig

COMPOSITION = """
composition echo_comp {
    compute e uses cluster_echo in(data) out(result);
    input data -> e.data;
    output e.result -> result;
}
"""


@compute_function(name="cluster_echo", compute_cost=2e-3)
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


def test_cluster_validation():
    with pytest.raises(ValueError):
        ClusterManager(worker_count=0)
    with pytest.raises(ValueError):
        ClusterManager(policy="chaotic")


def test_single_invocation_roundtrip():
    cluster = make_cluster()
    result = cluster.invoke_and_run("echo_comp", {"data": b"hello"})
    assert result.ok
    assert result.output("result").item("data").data == b"hello"
    assert cluster.invocations_routed == 1


def test_registration_fans_out_to_all_workers():
    cluster = make_cluster(workers=3)
    for worker in cluster.workers:
        assert worker.registry.has_function("cluster_echo")
        assert worker.registry.has_composition("echo_comp")


NESTED = """
composition nested_comp {
    compose inner uses echo_comp;
    input data -> inner.data;
    output inner.result -> result;
}
"""


def test_fleet_parses_each_composition_once(monkeypatch):
    calls = []
    real_parse = http_frontend.parse_composition

    def counting_parse(source, library=None):
        calls.append(source)
        return real_parse(source, library=library)

    monkeypatch.setattr(http_frontend, "parse_composition", counting_parse)
    cluster = make_cluster(workers=4)
    nested = cluster.register_composition(NESTED)
    assert calls == [COMPOSITION, NESTED]
    echo_comp = cluster.workers[0].registry.composition("echo_comp")
    assert nested.nodes["inner"].composition is echo_comp
    for worker in cluster.workers:
        assert worker.registry.composition("echo_comp") is echo_comp
        assert worker.registry.composition("nested_comp") is nested
        done = worker.frontend.invoke("nested_comp", {"data": b"deep"})
        cluster.env.run(until=done)
        assert done.value.output("result").item("data").data == b"deep"
    # A restored worker replays the same objects; nothing is re-parsed.
    cluster.fail_worker(1)
    cluster.restore_worker(1)
    assert cluster.workers[1].registry.composition("nested_comp") is nested
    assert len(calls) == 2


def test_round_robin_spreads_evenly():
    cluster = make_cluster(workers=3, policy="round_robin")
    processes = [
        cluster.invoke("echo_comp", {"data": f"{i}".encode()}) for i in range(9)
    ]
    cluster.env.run(until=cluster.env.all_of(processes))
    assert set(cluster.per_worker_invocations.values()) == {3}


def test_least_loaded_balances_concurrent_burst():
    cluster = make_cluster(workers=2, policy="least_loaded")
    processes = [
        cluster.invoke("echo_comp", {"data": b"x"}) for _ in range(8)
    ]
    cluster.env.run(until=cluster.env.all_of(processes))
    counts = list(cluster.per_worker_invocations.values())
    assert sum(counts) == 8
    assert min(counts) >= 3  # roughly even under simultaneous arrivals


def test_random_policy_uses_both_workers():
    cluster = make_cluster(workers=2, policy="random")
    processes = [
        cluster.invoke("echo_comp", {"data": b"x"}) for _ in range(20)
    ]
    cluster.env.run(until=cluster.env.all_of(processes))
    assert all(count > 0 for count in cluster.per_worker_invocations.values())


def test_parallelism_across_workers():
    # 8 concurrent 2ms requests on 2 workers x 3 compute cores: clearly
    # faster than serializing on one worker's cores.
    single = make_cluster(workers=1)
    duo = make_cluster(workers=2)
    for cluster in (single, duo):
        processes = [cluster.invoke("echo_comp", {"data": b"x"}) for _ in range(12)]
        cluster.env.run(until=cluster.env.all_of(processes))
    assert duo.env.now < single.env.now


def test_scale_out_replays_registrations():
    cluster = make_cluster(workers=1)
    new_worker = cluster.add_worker()
    assert new_worker.registry.has_composition("echo_comp")
    result = cluster.invoke_and_run("echo_comp", {"data": b"after-scale"})
    assert result.ok
    assert cluster.worker_count == 2


def test_failed_invocation_propagates():
    cluster = make_cluster()
    result = cluster.invoke_and_run("echo_comp", {})  # missing input
    assert not result.ok


def test_unknown_composition_raises_at_the_call_site():
    # Before any counter or the clock moves, from invoke() and start().
    cluster = make_cluster()
    scheduled = cluster.env.events_scheduled
    for entry in (cluster.invoke, lambda *args: cluster.start(*args, print)):
        with pytest.raises(RegistryError, match="unknown composition 'nope'"):
            entry("nope", {"data": b"x"})
    assert cluster.env.events_scheduled == scheduled
    cluster.env.run()
    assert cluster.env.now == 0.0
    assert cluster.invocations_routed == 0
    assert cluster.per_worker_invocations == {0: 0, 1: 0}


def test_crash_reroutes_in_routing_order():
    # Eight invocations in flight on worker 0 when it fail-stops: they
    # reach the surviving worker in the order they were first routed,
    # not in an order that follows object addresses.
    cluster = make_cluster(workers=2, policy="round_robin")
    env = cluster.env
    arrivals = []
    survivor = cluster.workers[1].frontend
    forward = survivor.start

    def recording_start(name, inputs, on_done):
        arrivals.append((env.now, inputs["data"]))
        forward(name, inputs, on_done)

    survivor.start = recording_start
    done = [
        cluster.invoke("echo_comp", {"data": f"{i}".encode()}) for i in range(16)
    ]
    env.call_later(1e-3, cluster.fail_worker, 0)
    env.run(until=env.all_of(done))
    assert all(event.value.ok for event in done)
    assert cluster.reroutes == 8
    rerouted = [data for when, data in arrivals if when >= 1e-3]
    assert rerouted == [f"{i}".encode() for i in range(0, 16, 2)]


@pytest.mark.parametrize("restore_before_reply", [False, True])
def test_reply_of_a_crashed_worker_is_never_delivered(restore_before_reply):
    # Worker 0 fail-stops with an invocation in flight; the simulated
    # node still finishes it ~1 ms later, but that reply belongs to a
    # dead attempt: the caller hears one outcome (the re-routed one),
    # the accounting unwinds once, and the restored node serves normally.
    cluster = make_cluster(workers=2, policy="round_robin")
    env = cluster.env
    crashed = cluster.workers[0]
    outcomes = []
    cluster.start("echo_comp", {"data": b"x"}, outcomes.append)
    env.call_later(1e-3, cluster.fail_worker, 0)
    if restore_before_reply:
        env.call_later(1.1e-3, cluster.restore_worker, 0)
    env.run()
    assert crashed.dispatcher.invocations_completed == 1  # the lost reply was sent
    assert [result.ok for result in outcomes] == [True]
    assert cluster.per_worker_invocations == {0: 1, 1: 1}
    assert cluster.reroutes == 1 and cluster.latencies.count == 1
    assert cluster._in_flight == {0: 0, 1: 0}
    assert cluster._crash_waiters == {0: {}, 1: {}}

    if not restore_before_reply:
        cluster.restore_worker(0)
    assert cluster.workers[0] is not crashed
    again = [cluster.invoke("echo_comp", {"data": b"y"}) for _ in range(2)]
    env.run()
    assert all(event.value.ok for event in again)
    assert cluster.per_worker_invocations == {0: 2, 1: 2}
    assert cluster.workers[0].dispatcher.invocations_completed == 1


def test_stats_shape():
    cluster = make_cluster()
    cluster.invoke_and_run("echo_comp", {"data": b"x"})
    stats = cluster.stats()
    assert stats["workers"] == 2
    assert stats["invocations_routed"] == 1
    assert stats["total_committed_bytes"] == 0
    assert stats["peak_committed_bytes"] > 0


def test_workers_share_environment_and_network():
    cluster = make_cluster(workers=3)
    assert all(worker.env is cluster.env for worker in cluster.workers)
    assert all(worker.network is cluster.network for worker in cluster.workers)
