"""Tests for the gray-failure fault domain (§6.3).

Covers the whole chain: engine throttles (limp faults slow a worker
without killing it), the incremental latency health tracker, quarantine
with TTL probation inside the cluster manager, the ``gray`` routing
policy's traffic shift, and hedged requests with their budget and
idempotency gates.
"""

import pytest

from repro.cluster import ClusterManager
from repro.cluster.health import MIN_SAMPLES, QUARANTINE_FACTOR, LatencyHealthTracker
from repro.functions import compute_function
from repro.net import EchoService
from repro.sim import Rng
from repro.worker import WorkerConfig

COMPUTE_SECONDS = 2e-3

COMPOSITION = """
composition gray_echo {
    compute e uses gray_echo_fn in(data) out(result);
    input data -> e.data;
    output e.result -> result;
}
"""

@compute_function(name="gray_echo_fn", compute_cost=COMPUTE_SECONDS)
def echo(vfs):
    vfs.write_bytes("/out/result/data", vfs.read_bytes("/in/data/data"))


def make_cluster(workers=2, **kwargs):
    kwargs.setdefault("policy", "least_loaded")
    cluster = ClusterManager(
        worker_count=workers,
        worker_config=WorkerConfig(total_cores=4, control_plane_enabled=False),
        **kwargs,
    )
    cluster.register_function(echo)
    cluster.register_composition(COMPOSITION)
    return cluster


def drive(cluster, count=60, rps=500.0, seed=11, name="gray_echo"):
    env = cluster.env
    arrivals = Rng(seed).poisson_arrivals(rps, count / rps)
    done = [0]

    def one(at):
        delay = at - env.now
        if delay > 0:
            yield env.timeout(delay)
        result = yield cluster.invoke(name, {"data": b"x"})
        if result.ok:
            done[0] += 1

    def driver():
        processes = [env.process(one(t)) for t in arrivals]
        if processes:
            yield env.all_of(processes)

    env.run(until=env.process(driver()))
    return len(arrivals), done[0]


# -- limp faults: engine throttles ----------------------------------------


def test_limp_multiplies_compute_latency_end_to_end():
    baseline = make_cluster(workers=1)
    baseline.invoke_and_run("gray_echo", {"data": b"x"})
    healthy_latency = baseline.latencies.maximum

    limped = make_cluster(workers=1)
    limped.limp_worker(0, 4.0)
    result = limped.invoke_and_run("gray_echo", {"data": b"x"})
    assert result.ok  # limplock: slow, not dead
    limp_latency = limped.latencies.maximum
    # The compute stage dominates this composition, so a 4x throttle
    # shows up as roughly 4x the end-to-end latency.
    assert limp_latency > 3.0 * healthy_latency


def test_limp_clear_restores_full_speed():
    cluster = make_cluster(workers=1)
    cluster.limp_worker(0, 8.0)
    assert cluster.limp_factor(0) == 8.0
    assert cluster.limping_worker_count == 1
    cluster.clear_limp(0)
    assert cluster.limp_factor(0) == 1.0
    assert cluster.limping_worker_count == 0
    cluster.invoke_and_run("gray_echo", {"data": b"x"})
    assert cluster.latencies.maximum < 2.0 * COMPUTE_SECONDS


def test_limp_validation():
    cluster = make_cluster(workers=2)
    with pytest.raises(IndexError):
        cluster.limp_worker(7, 2.0)
    with pytest.raises(ValueError):
        cluster.limp_worker(0, 0.5)  # multiplier must be >= 1.0
    cluster.fail_worker(0)
    with pytest.raises(ValueError):
        cluster.limp_worker(0, 2.0)  # dead workers cannot limp


# -- latency health tracker ------------------------------------------------


def test_tracker_quarantines_outlier_against_peer_baseline():
    tracker = LatencyHealthTracker()
    flips = []
    for _ in range(MIN_SAMPLES):
        tracker.observe(0, 1.0)
        tracker.observe(1, 1.0)
        flips.append(tracker.observe(2, 10.0))
    # Judged only once it has MIN_SAMPLES (8) completions.
    assert MIN_SAMPLES == 8
    assert flips == [False] * (MIN_SAMPLES - 1) + [True]
    assert tracker.is_quarantined(2)
    assert not tracker.is_quarantined(0)
    assert tracker.quarantine_entries == 1
    # Peer baseline excludes the offender's own samples.
    assert tracker.score(2) / tracker.score(0) > QUARANTINE_FACTOR


def test_tracker_releases_with_hysteresis():
    tracker = LatencyHealthTracker()
    for _ in range(MIN_SAMPLES):
        tracker.observe(0, 1.0)
        tracker.observe(1, 1.0)
        tracker.observe(2, 10.0)
    assert tracker.is_quarantined(2)
    # Recovery: fast completions pull the EWMA back under RELEASE_FACTOR.
    released = False
    for _ in range(40):
        tracker.observe(0, 1.0)
        tracker.observe(1, 1.0)
        if tracker.observe(2, 1.0):
            released = True
    assert released
    assert not tracker.is_quarantined(2)
    assert tracker.quarantine_exits == 1


def test_tracker_reset_forgets_history_and_releases():
    tracker = LatencyHealthTracker()
    for _ in range(MIN_SAMPLES):
        tracker.observe(0, 1.0)
        tracker.observe(1, 10.0)
    assert tracker.is_quarantined(1)
    assert tracker.reset(1)
    assert not tracker.is_quarantined(1)
    assert tracker.sample_count(1) == 0
    assert tracker.score(1) != tracker.score(1)  # NaN
    assert tracker.quarantine_exits == 1


def test_tracker_single_worker_never_quarantined():
    tracker = LatencyHealthTracker()
    for _ in range(20):
        tracker.observe(0, 100.0)
    assert not tracker.is_quarantined(0)  # no peers, no baseline


def test_tracker_validation():
    with pytest.raises(ValueError):
        LatencyHealthTracker().observe(0, -1.0)


# -- manager integration: quarantine shifts traffic ------------------------


def test_latency_health_quarantines_limping_worker_and_shifts_traffic():
    cluster = make_cluster(workers=3, policy="gray", latency_health=True)
    cluster.limp_worker(0, 10.0)
    offered, completed = drive(cluster, count=120)
    assert completed == offered
    stats = cluster.stats()["gray"]
    assert stats["quarantine_entries"] >= 1
    assert cluster.is_quarantined(0)
    # The limping worker took its share only until detection kicked in.
    share = cluster.per_worker_invocations[0] / offered
    assert share < 1 / 3 * 0.8


def test_quarantine_ttl_probation_lets_recovered_worker_rejoin():
    cluster = make_cluster(
        workers=3, policy="gray", latency_health=True,
        quarantine_ttl_seconds=0.05,
    )
    cluster.limp_worker(0, 10.0)
    drive(cluster, count=240)
    stats = cluster.stats()["gray"]
    # The TTL granted amnesty (an exit) at least once mid-drive, and the
    # still-limping worker was re-caught within min_samples completions.
    assert stats["quarantine_exits"] >= 1
    assert stats["quarantine_entries"] >= 2
    cluster.clear_limp(0)
    # After recovery the next amnesty sticks: fresh fast completions
    # keep the worker in the preferred ring and it takes traffic again.
    before = cluster.per_worker_invocations[0]
    drive(cluster, count=240, seed=12)
    assert not cluster.is_quarantined(0)
    assert cluster.per_worker_invocations[0] > before


def test_fail_worker_resets_latency_history():
    cluster = make_cluster(workers=3, policy="gray", latency_health=True)
    cluster.limp_worker(0, 10.0)
    drive(cluster, count=120)
    assert cluster.is_quarantined(0)
    cluster.fail_worker(0)
    assert not cluster.is_quarantined(0)
    cluster.restore_worker(0)
    assert cluster.health.sample_count(0) == 0  # fail-stop: fresh node


def test_latency_health_off_keeps_legacy_stats_shape():
    cluster = make_cluster(workers=2)
    cluster.invoke_and_run("gray_echo", {"data": b"x"})
    stats = cluster.stats()["gray"]
    assert stats["quarantined_workers"] == 0
    assert stats["quarantine_entries"] == 0
    assert stats["hedges_issued"] == 0


# -- hedged requests -------------------------------------------------------


def hedging_cluster(workers=3, **kwargs):
    return make_cluster(
        workers=workers,
        policy="gray",
        latency_health=True,
        hedge=True,
        hedge_percentile=95.0,
        hedge_budget_fraction=0.10,
        **kwargs,
    )


def test_hedging_respects_budget_and_wins_races():
    cluster = hedging_cluster()
    cluster.limp_worker(0, 10.0)
    offered, completed = drive(cluster, count=200)
    assert completed == offered
    assert cluster.hedges_issued >= 1
    # Budget: hedges never exceed the configured fraction of hedged
    # traffic (checked atomically at issue time).
    assert cluster.hedges_issued <= 0.10 * offered
    stats = cluster.stats()["gray"]
    assert stats["hedge_rate"] <= 0.10
    assert stats["hedges_won"] <= stats["hedges_issued"]


def test_hedging_deterministic_per_seed():
    def run():
        cluster = hedging_cluster()
        cluster.limp_worker(0, 10.0)
        offered, completed = drive(cluster, count=150)
        return (
            offered,
            completed,
            cluster.hedges_issued,
            cluster.hedges_won,
            cluster.stats()["gray"]["quarantine_entries"],
            cluster.env.now,
        )

    assert run() == run()


def test_hedging_skipped_for_non_idempotent_compositions():
    from repro.functions import format_http_request

    cluster = hedging_cluster()
    cluster.network.register(EchoService(host="echo"))

    @compute_function(name="gray_gen_fn", compute_cost=1e-5)
    def gen(vfs):
        from repro.functions import write_item

        write_item(vfs, "request", "r", format_http_request("GET", "http://echo/"))

    @compute_function(name="gray_check_fn", compute_cost=1e-5)
    def check(vfs):
        from repro.functions import read_items, write_item

        assert read_items(vfs, "response")
        write_item(vfs, "out", "ok", b"1")

    cluster.register_function(gen)
    cluster.register_function(check)
    cluster.register_composition(
        """
        composition gray_fetch {
            compute g uses gray_gen_fn in(seed) out(request);
            comm c;
            compute k uses gray_check_fn in(response) out(out);
            input seed -> g.seed;
            g.request -> c.request [all];
            c.response -> k.response [all];
            output k.out -> out;
        }
        """
    )
    cluster.limp_worker(0, 10.0)
    env = cluster.env
    done = [0]

    def one():
        result = yield cluster.invoke("gray_fetch", {"seed": b""})
        if result.ok:
            done[0] += 1

    def driver():
        yield env.all_of([env.process(one()) for _ in range(80)])

    env.run(until=env.process(driver()))
    assert done[0] == 80
    # Communication nodes have side effects: never hedged.
    assert cluster.hedges_issued == 0


def test_hedge_parameter_validation():
    with pytest.raises(ValueError):
        make_cluster(workers=2, latency_health=True, hedge=True,
                     hedge_budget_fraction=1.5)
    with pytest.raises(ValueError):
        make_cluster(workers=2, latency_health=True, hedge=True,
                     hedge_percentile=101.0)
    with pytest.raises(ValueError):
        make_cluster(workers=2, latency_health=True,
                     quarantine_ttl_seconds=0.0)


def test_zero_hedge_budget_never_hedges():
    cluster = make_cluster(
        workers=3, policy="gray", latency_health=True, hedge=True,
        hedge_budget_fraction=0.0,
    )
    cluster.limp_worker(0, 10.0)
    offered, completed = drive(cluster, count=80)
    assert completed == offered
    assert cluster.hedges_issued == 0


def test_health_tracker_argument_removed():
    # Latency health is switched on by latency_health=True alone.
    with pytest.raises(TypeError):
        ClusterManager(worker_count=1, health_tracker=LatencyHealthTracker())
