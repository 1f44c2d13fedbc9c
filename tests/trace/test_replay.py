"""Tests for trace replay on Dandelion and Firecracker+Knative.

One 16-core node, the Fig 1/10 shape, through the lean replay path.
"""

from dataclasses import asdict

import pytest

from repro.sim.sharded import ShardedConfig, run_sharded_replay
from repro.sim.sharded.shard import ShardSim
from repro.trace import streamed_trace


@pytest.fixture(scope="module")
def small_trace():
    # Dense enough that keep-alive actually produces warm hits: 10
    # functions sharing ~8 rps over four minutes.
    return streamed_trace(function_count=10, duration_seconds=240, total_rps=8, seed=21)


def replay(trace, platform, **model):
    return run_sharded_replay(
        trace, ShardedConfig(workers=1, cores_per_worker=16, platform=platform, **model)
    )


@pytest.fixture(scope="module")
def dandelion_report(small_trace):
    return replay(small_trace, "dandelion")


@pytest.fixture(scope="module")
def faas_report(small_trace):
    return replay(small_trace, "faas")


def cold_fraction(report):
    return report.cold_starts / report.completed


def test_all_invocations_served(small_trace, dandelion_report, faas_report):
    total = sum(1 for _ in small_trace.iter_invocations())
    assert dandelion_report.completed == dandelion_report.routed == total
    assert faas_report.completed == faas_report.routed == total


def test_dandelion_every_request_cold(dandelion_report):
    # No warm state exists to reuse: every request creates its context,
    # so a replay is exactly a delivery and a completion per invocation
    # with no keep-alive expiry events.
    assert dandelion_report.events == 2 * dandelion_report.completed


def test_faas_mostly_warm(faas_report):
    assert cold_fraction(faas_report) < 0.35


def test_dandelion_commits_far_less_memory(dandelion_report, faas_report):
    assert dandelion_report.committed_mean_bytes < faas_report.committed_mean_bytes / 5


def test_faas_overprovisions_vs_active(faas_report):
    assert faas_report.committed_mean_bytes > 3 * faas_report.active_mean_bytes


def test_dandelion_committed_equals_active(dandelion_report):
    # Committed memory *is* active memory: there is no second series.
    assert dandelion_report.active_grid is None
    assert dandelion_report.active_mean_bytes is None
    assert dandelion_report.committed_mean_bytes > 0


def test_dandelion_memory_returns_to_zero(small_trace):
    config = {
        **asdict(ShardedConfig(workers=1)),
        "duration_seconds": 10.0,
        "memory_of": small_trace.memory_bytes(),
    }
    sim = ShardSim((0,), config)
    deliveries = [(0.1 * i, 0, i % 10, 0.5, 0.1 * i) for i in range(40)]
    sim.run_window(deliveries, 2.0)
    (worker,) = sim.workers
    assert worker.committed > 0
    sim.run_window([], 10.0)
    assert worker.completed == 40
    assert worker.committed == 0


def test_latency_dominated_by_execution(dandelion_report):
    # Sandbox creation is sub-ms; latencies track the trace durations.
    assert dandelion_report.latency_percentile(50) >= 0.01


def test_summary_fields(dandelion_report):
    summary = dandelion_report.summary()
    assert {
        "platform", "committed_mean_bytes", "latency_p99", "cold_starts",
        "committed_grid",
    } <= set(summary)
    assert summary["platform"] == "dandelion"


def test_replay_deterministic(small_trace, dandelion_report):
    again = replay(small_trace, "dandelion")
    assert again.summary() == dandelion_report.summary()


def test_keep_alive_zero_removes_overprovisioning(small_trace):
    report = replay(small_trace, "faas", keep_alive_seconds=0.0)
    assert cold_fraction(report) == 1.0
    assert report.committed_mean_bytes == pytest.approx(
        report.active_mean_bytes, rel=0.05
    )


def test_longer_keepalive_more_memory_fewer_colds(small_trace):
    short = replay(small_trace, "faas", keep_alive_seconds=10.0)
    long = replay(small_trace, "faas", keep_alive_seconds=300.0)
    assert long.committed_mean_bytes > short.committed_mean_bytes
    assert cold_fraction(long) <= cold_fraction(short)


def test_second_replay_model_is_gone():
    with pytest.raises(ModuleNotFoundError):
        import repro.trace.replay  # noqa: F401
