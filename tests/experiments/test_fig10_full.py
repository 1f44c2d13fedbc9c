"""fig10_full: reduced-scale correctness and run-to-run determinism."""

import pytest

from repro.experiments import run_fig10_full
from repro.experiments.fig10_full import _base_spec, _fleet_for, full_trace
from repro.scenario import run_scenario


@pytest.fixture(scope="module")
def result():
    return run_fig10_full(scale=1.0)


def test_rows_cover_both_platforms(result):
    platforms = result.column("platform")
    assert platforms == ["dandelion", "faas"]
    dandelion = result.row(platform="dandelion")
    faas = result.row(platform="faas")
    assert dandelion["invocations"] == faas["invocations"] > 0
    # The paper's qualitative claims at any scale: Dandelion commits
    # far less memory and keeps a lower tail than FC+Knative.
    assert dandelion["committed_mean_mib"] < faas["committed_mean_mib"]
    assert dandelion["p99_ms"] < faas["p99_ms"]
    assert dandelion["cold_fraction"] == 1.0
    assert 0.0 < faas["cold_fraction"] < 1.0


def test_render_is_shard_count_invariant(result):
    # The experiment has no shard knob; partition the same scenario by
    # hand and compare what the table is rendered from.
    spec = _base_spec(1.0, *_fleet_for(1.0), window_seconds=0.5, seed=42)
    for platform in ("dandelion", "faas"):
        arm = spec.with_overrides({"fleet.platform": platform})
        report = run_scenario(arm, shards=2).report
        row = result.row(platform=platform)
        assert row["invocations"] == report.completed
        assert row["p99_ms"] == report.latency_percentile(99) * 1e3
        assert row["committed_mean_mib"] == report.committed_mean_bytes / (1 << 20)
    assert run_fig10_full(scale=1.0).render() == result.render()


def test_meta_carries_observability_not_rendered(result):
    meta = result.meta
    assert "shards" not in meta and "executor" not in meta
    for platform in ("dandelion", "faas"):
        stats = meta["platforms"][platform]
        assert stats["wall_seconds"] > 0
        assert stats["events"] > 0
        assert stats["windows"] > 0
    assert "wall_seconds" not in result.render()


def test_full_trace_scales_population():
    trace = full_trace(scale=2.0)
    assert trace.function_count == 200
    assert trace.duration_seconds == 1200.0


def test_fleet_sizing():
    assert _fleet_for(100.0) == (25, 64)
    assert _fleet_for(10.0) == (4, 64)  # never below a real 4-way split
