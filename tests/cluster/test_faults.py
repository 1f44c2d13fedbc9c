"""Tests for the fail-stop worker fault domain (§6.1 + Dirigent, §5)."""

import pytest

from repro.cluster import ClusterManager, WorkerFaultInjector
from repro.cluster.manager import MAX_REROUTES
from repro.errors import WorkerCrashed
from repro.functions import compute_function
from repro.sim import Rng
from repro.worker import WorkerConfig

COMPOSITION = """
composition fault_echo {
    compute e uses fault_echo_fn in(data) out(result);
    input data -> e.data;
    output e.result -> result;
}
"""


@compute_function(name="fault_echo_fn", compute_cost=2e-3)
def echo(vfs):
    vfs.write_bytes("/out/result/data", vfs.read_bytes("/in/data/data"))


def make_cluster(workers=2, policy="least_loaded", cores=4, **kwargs):
    cluster = ClusterManager(
        worker_count=workers,
        worker_config=WorkerConfig(total_cores=cores, control_plane_enabled=False),
        policy=policy,
        **kwargs,
    )
    cluster.register_function(echo)
    cluster.register_composition(COMPOSITION)
    return cluster


def fail_at(cluster, when, index):
    def crasher():
        yield cluster.env.timeout(when)
        cluster.fail_worker(index)

    return cluster.env.process(crasher())


def test_fail_worker_validation():
    cluster = make_cluster()
    with pytest.raises(IndexError):
        cluster.fail_worker(7)
    cluster.fail_worker(0)
    with pytest.raises(ValueError):
        cluster.fail_worker(0)
    with pytest.raises(ValueError):
        cluster.restore_worker(1)  # healthy worker, nothing to restore
    with pytest.raises(IndexError):
        cluster.restore_worker(7)


def test_routing_skips_unhealthy_workers():
    cluster = make_cluster(workers=2, policy="round_robin")
    cluster.fail_worker(0)
    for _ in range(4):
        result = cluster.invoke_and_run("fault_echo", {"data": b"x"})
        assert result.ok
    assert cluster.per_worker_invocations[0] == 0
    assert cluster.per_worker_invocations[1] == 4
    assert cluster.healthy_worker_count == 1


def test_in_flight_invocation_rerouted_on_crash():
    cluster = make_cluster(workers=2)
    # least_loaded sends the first invocation to worker 0; crash it
    # mid-flight (service time is 2 ms) and expect a transparent
    # re-execution on worker 1.
    fail_at(cluster, 1e-3, 0)
    result = cluster.invoke_and_run("fault_echo", {"data": b"reroute"})
    assert result.ok
    assert result.output("result").item("data").data == b"reroute"
    assert cluster.reroutes == 1
    assert cluster.worker_crashes == 1
    assert cluster.per_worker_invocations[1] == 1


def test_reroute_exhaustion_surfaces_worker_crashed():
    # least_loaded places the invocation on the lowest idle index, so
    # crashing workers 0, 1, 2, ... 1 ms apart (service time is 2 ms)
    # kills every attempt in flight.  The crash after the MAX_REROUTES-th
    # re-route fails the invocation, with a healthy worker still left.
    cluster = make_cluster(workers=MAX_REROUTES + 2)
    for index in range(MAX_REROUTES + 1):
        fail_at(cluster, (index + 1) * 1e-3, index)
    result = cluster.invoke_and_run("fault_echo", {"data": b"x"})
    assert not result.ok
    assert isinstance(result.error, WorkerCrashed)
    assert cluster.reroutes == MAX_REROUTES == 3
    assert cluster.healthy_worker_count == 1
    assert cluster.invocations_failed == 1
    assert cluster.failed_latencies.count == 1


def test_no_healthy_workers_fails_fast():
    cluster = make_cluster(workers=2)
    cluster.fail_worker(0)
    cluster.fail_worker(1)
    result = cluster.invoke_and_run("fault_echo", {"data": b"x"})
    assert not result.ok
    assert "no healthy workers" in str(result.error)
    assert cluster.invocations_failed == 1


def test_restore_builds_fresh_worker_with_registrations():
    cluster = make_cluster(workers=2)
    crashed = cluster.workers[0]
    cluster.fail_worker(0)
    restored = cluster.restore_worker(0)
    assert restored is not crashed  # fail-stop: state was lost
    assert restored.registry.has_function("fault_echo_fn")
    assert restored.registry.has_composition("fault_echo")
    assert cluster.is_healthy(0)
    assert cluster.worker_restores == 1
    # The restored node serves traffic again.
    cluster.fail_worker(1)
    result = cluster.invoke_and_run("fault_echo", {"data": b"back"})
    assert result.ok
    assert cluster.per_worker_invocations[0] >= 1


def test_failed_invocations_are_observable():
    cluster = make_cluster()
    result = cluster.invoke_and_run("fault_echo", {})  # missing input
    assert not result.ok
    assert cluster.invocations_failed == 1
    assert cluster.per_worker_failures[0] == 1
    assert cluster.failed_latencies.count == 1
    assert cluster.latencies.count == 0  # error latency kept separate


def test_stats_failures_block():
    cluster = make_cluster(workers=2)
    fail_at(cluster, 1e-3, 0)
    cluster.invoke_and_run("fault_echo", {"data": b"x"})
    cluster.restore_worker(0)
    stats = cluster.stats()
    assert stats["healthy_workers"] == 2
    failures = stats["failures"]
    assert failures["worker_crashes"] == 1
    assert failures["worker_restores"] == 1
    assert failures["reroutes"] == 1
    assert failures["per_worker_crashes"] == {0: 1, 1: 0}
    assert failures["failed_invocations"] == 0


def _drive(cluster, count=40, rps=400.0, seed=11):
    env = cluster.env
    arrivals = Rng(seed).poisson_arrivals(rps, count / rps)
    done = [0]

    def one(at):
        delay = at - env.now
        if delay > 0:
            yield env.timeout(delay)
        result = yield cluster.invoke("fault_echo", {"data": b"x"})
        if result.ok:
            done[0] += 1

    def driver():
        processes = [env.process(one(t)) for t in arrivals]
        if processes:
            yield env.all_of(processes)

    env.run(until=env.process(driver()))
    return len(arrivals), done[0]


def test_injector_deterministic_per_seed():
    outcomes = []
    for _ in range(2):
        cluster = make_cluster(workers=3)
        injector = WorkerFaultInjector(
            cluster, mttf_seconds=0.02, mttr_seconds=0.01, seed=5
        )
        offered, completed = _drive(cluster)
        outcomes.append(
            (
                offered,
                completed,
                injector.crashes_injected,
                injector.restores_performed,
                cluster.reroutes,
                cluster.env.now,
            )
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] > 0  # faults actually fired
    assert outcomes[0][1] > 0  # and the cluster still made progress


def test_injector_spares_last_healthy_worker():
    cluster = make_cluster(workers=1)
    injector = WorkerFaultInjector(cluster, mttf_seconds=0.005, mttr_seconds=0.005, seed=1)
    offered, completed = _drive(cluster, count=20)
    assert injector.crashes_injected == 0
    assert injector.crashes_skipped > 0
    assert completed == offered


def test_injector_validation():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        WorkerFaultInjector(cluster, mttf_seconds=0.0, mttr_seconds=1.0)
    with pytest.raises(ValueError):
        WorkerFaultInjector(cluster, mttf_seconds=1.0, mttr_seconds=-1.0)
    with pytest.raises(ValueError):
        # Limp cycles enabled without a duration.
        WorkerFaultInjector(
            cluster, mttf_seconds=1.0, mttr_seconds=1.0,
            limp_mttf_seconds=1.0, limp_severity=4.0,
        )
    with pytest.raises(ValueError):
        WorkerFaultInjector(
            cluster, mttf_seconds=1.0, mttr_seconds=1.0,
            limp_mttf_seconds=1.0, limp_duration_seconds=1.0,
            limp_severity=0.5,
        )


def test_injector_skips_restore_when_worker_restored_externally():
    # Regression: the injector used to call restore_worker unconditionally
    # after its MTTR sleep.  If an external actor (a test, an operator
    # script) restored the worker mid-sleep, that second restore raised
    # ValueError inside the injector process and killed the lifecycle
    # loop.  The injector must re-check health and skip (counted).
    cluster = make_cluster(workers=2)
    injector = WorkerFaultInjector(
        cluster, mttf_seconds=0.01, mttr_seconds=0.05, seed=3
    )
    env = cluster.env

    def external_operator():
        # Eagerly repair any downed worker long before the injector's
        # MTTR sleep (50 ms mean) elapses.
        while env.now < 0.4:
            yield env.timeout(1e-3)
            for index in range(cluster.worker_count):
                if not cluster.is_healthy(index):
                    cluster.restore_worker(index)

    env.process(external_operator())
    offered, completed = _drive(cluster, count=100, rps=250.0)
    assert injector.restores_skipped > 0  # the race actually happened
    # The lifecycle loops survived the race: later cycles kept firing
    # instead of dying on the ValueError the old code raised.
    assert injector.crashes_injected >= 2
    assert completed > 0


def test_limp_cycles_fire_and_clear():
    cluster = make_cluster(workers=2)
    injector = WorkerFaultInjector(
        cluster,
        mttf_seconds=1e9,  # crashes effectively disabled
        mttr_seconds=1.0,
        seed=5,
        limp_mttf_seconds=0.02,
        limp_duration_seconds=0.01,
        limp_severity=4.0,
    )
    offered, completed = _drive(cluster, count=100, rps=250.0)
    assert injector.crashes_injected == 0
    assert injector.limps_injected > 0
    assert injector.limps_cleared > 0
    assert completed > 0
    # Slow-but-alive: a limp never removes the worker from the ring.
    assert cluster.healthy_worker_count == 2


def test_limp_streams_leave_crash_schedule_untouched():
    # Limp RNG streams fork at a disjoint salt range, so enabling limp
    # cycles must not perturb an existing experiment's crash schedule.
    # Compared over a fixed virtual-time horizon (driving traffic would
    # finish later under limp and admit extra cycles).
    def crash_trace(with_limp):
        cluster = make_cluster(workers=3)
        kwargs = dict(mttf_seconds=0.02, mttr_seconds=0.01, seed=5)
        if with_limp:
            kwargs.update(
                limp_mttf_seconds=0.03,
                limp_duration_seconds=0.01,
                limp_severity=4.0,
            )
        injector = WorkerFaultInjector(cluster, **kwargs)
        cluster.env.run(until=0.5)
        return injector.crashes_injected, injector.restores_performed

    baseline = crash_trace(with_limp=False)
    assert baseline[0] > 0
    assert baseline == crash_trace(with_limp=True)


def test_limp_severity_one_creates_no_limp_processes():
    cluster = make_cluster(workers=2)
    injector = WorkerFaultInjector(
        cluster, mttf_seconds=1e9, mttr_seconds=1.0,
        limp_mttf_seconds=0.01, limp_duration_seconds=0.01,
        limp_severity=1.0,
    )
    _drive(cluster, count=30)
    assert injector.limps_injected == 0
    assert len(injector._processes) == cluster.worker_count
