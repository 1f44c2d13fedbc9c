"""Trace-scale benchmark plumbing: groups, filter, and the gated record."""

import json
from pathlib import Path

import pytest

from repro.experiments.bench_kernel import BENCH_GROUPS, run_bench
from repro.experiments.bench_trace_scale import FLOORS, trace_scale_matrix

REPO_ROOT = Path(__file__).resolve().parents[2]

ROW_KEYS = [(1, "serial"), (2, "serial"), (4, "serial"), (4, "auto")]


def test_committed_bench_report_is_consistent():
    path = REPO_ROOT / "BENCH_trace_scale.json"
    report = json.loads(path.read_text())
    assert report["schema"] == "repro-bench-trace-scale/v2"
    assert report["floors"] == FLOORS
    matrix = report["measured"]["scale_10x"]
    assert not any(key.startswith("speedup_") for key in matrix)
    assert [(r["shards"], r["executor"]) for r in matrix["rows"]] == ROW_KEYS
    for row in matrix["rows"]:
        assert row["events_per_second"] >= FLOORS["events_per_second_min"]
    assert matrix["rows"][-1]["executor_mode"] == (
        "process" if report["cpu_count"] > 1 else "serial"
    )


def test_matrix_smoke():
    # A tiny matrix run: rows present, events/sec recorded, every row
    # replays the same stream.
    matrix = trace_scale_matrix(scale=0.5)
    assert [(r["shards"], r["executor"]) for r in matrix["rows"]] == ROW_KEYS
    for row in matrix["rows"]:
        assert row["invocations"] > 0
        assert row["events_per_second"] > 0
        assert row["wall_seconds"] >= 0
    assert len({r["invocations"] for r in matrix["rows"]}) == 1


def test_bench_only_filter_selects_groups():
    report = run_bench(output=None, only=["timeout_churn_200k"])
    assert list(report["benchmarks"]) == ["timeout_churn_200k"]
    assert report["benchmarks"]["timeout_churn_200k"]["operations"] == 200_000


def test_bench_only_rejects_unknown_group():
    with pytest.raises(KeyError, match="unknown bench groups"):
        run_bench(output=None, only=["no_such_group"])


def test_trace_scale_is_a_registered_group():
    assert "trace_scale" in BENCH_GROUPS
