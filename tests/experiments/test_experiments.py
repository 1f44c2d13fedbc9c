"""Tests for the experiment harnesses (small configurations).

The benchmarks exercise paper-scale parameters; these tests verify the
harness plumbing — row/column shapes, notes, determinism — quickly.
"""

import pytest

from repro.experiments import (
    DandelionLoadModel,
    matmul_1x1_binary,
    matmul_128_binary,
    run_fig01,
    run_fig02,
    run_fig05,
    run_fig06,
    run_fig08,
    run_fig09,
    run_fig10,
    run_sec61,
    run_sec74,
    run_sec77,
    run_sec8_enforcement,
    run_sec8_tcb,
    run_table1,
)
from repro.experiments.common import ExperimentResult, render_table
from repro.scenario import load_spec
from repro.sim import Environment


def test_experiment_result_helpers():
    result = ExperimentResult("X", "desc", headers=["a", "b"])
    result.add_row(a=1, b=2.5)
    result.add_row(a=2, b=3.5)
    result.note("hello")
    assert result.row(a=2)["b"] == 3.5
    with pytest.raises(KeyError):
        result.row(a=99)
    assert result.column("a") == [1, 2]
    rendered = result.render()
    assert "X: desc" in rendered
    assert "note: hello" in rendered


def test_render_table_alignment():
    text = render_table(["name", "value"], [{"name": "x", "value": 1.0}])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert len(lines) == 3


def test_table1_runs_both_machines():
    for machine in ("morello", "linux"):
        result = run_table1(machine)
        assert len(result.rows) == 7  # 6 stages + total
        assert result.row(stage="total")["kvm"] > 0


def test_fig02_small():
    result = run_fig02(hot_ratios=(1.0, 0.97), rate_rps=100, duration_seconds=2.0)
    assert len(result.rows) == 2
    assert result.rows[1]["p999_ms"] >= result.rows[0]["p999_ms"]


def test_fig05_subset():
    result = run_fig05(
        systems=("dandelion-cheri", "firecracker-snapshot"),
        rates=(25, 100),
        duration_seconds=0.3,
    )
    systems = set(result.column("system"))
    assert systems == {"dandelion-cheri", "firecracker-snapshot"}


def test_fig06_subset():
    result = run_fig06(
        systems=("dandelion-kvm", "wasmtime"), rates=(100, 500), duration_seconds=0.3
    )
    dandelion = [r for r in result.rows if r["system"] == "dandelion-kvm"][0]
    wasmtime = [r for r in result.rows if r["system"] == "wasmtime"][0]
    assert dandelion["p50_ms"] < wasmtime["p50_ms"]


def test_matmul_binaries_compute_correctly():
    import struct
    import numpy as np
    from repro.backends import create_backend
    from repro.data import DataItem, DataSet

    backend = create_backend("kvm", "linux")
    b1 = matmul_1x1_binary()
    execution = backend.execute(
        b1,
        [DataSet("a", [DataItem("value", struct.pack("<q", 6))]),
         DataSet("b", [DataItem("value", struct.pack("<q", 9))])],
        ["c"],
    )
    assert struct.unpack("<q", execution.outputs[0].item("value").data)[0] == 54

    b128 = matmul_128_binary()
    eye = np.eye(128, dtype=np.int64)
    m = np.arange(128 * 128, dtype=np.int64).reshape(128, 128)
    execution = backend.execute(
        b128,
        [DataSet("a", [DataItem("matrix", eye.tobytes())]),
         DataSet("b", [DataItem("matrix", m.tobytes())])],
        ["c"],
    )
    out = np.frombuffer(execution.outputs[0].item("matrix").data, dtype=np.int64)
    assert np.array_equal(out.reshape(128, 128), m)


def test_dandelion_load_model_cached_faster():
    env = Environment()
    import struct
    from repro.data import DataItem, DataSet

    model = DandelionLoadModel(
        env,
        matmul_1x1_binary(),
        [DataSet("a", [DataItem("value", struct.pack("<q", 1))]),
         DataSet("b", [DataItem("value", struct.pack("<q", 1))])],
        ["c"],
        cold_load_fraction=0.0,
    )
    assert model.cached_seconds < model.uncached_seconds
    completion = model.request()
    env.run(until=completion)
    assert env.now == model.cached_seconds


def test_sec74_small():
    result = run_sec74(depths=(2, 4), cores=8)
    assert result.row(phases=4)["dandelion_uncached_ms"] > result.row(phases=2)["dandelion_uncached_ms"]


def _sec61_small():
    base = load_spec("sec61").with_overrides({
        "trace.rps": 120.0,
        "trace.duration_seconds": 0.5,
        "fleet.workers": 2,
        "faults.mttr_seconds": 0.05,
    })
    return run_sec61(base, transient_rates=(0.0, 0.2), mttf_sweep=(0.2,))


def test_sec61_small():
    result = _sec61_small()
    assert len(result.rows) == 3  # 2 transient rates + 1 MTTF point
    baseline = result.rows[0]
    assert baseline["retries"] == 0  # fault-free run takes the fast path
    assert baseline["crashes"] == 0
    for row in result.rows:
        assert row["goodput_rps"] > 0
    faulty = result.rows[1]
    assert faulty["retries"] > 0
    failstop = result.rows[2]
    assert failstop["crashes"] > 0


def test_sec61_deterministic():
    assert _sec61_small().render() == _sec61_small().render()


def test_fig08_runs():
    schedule = {
        "logproc": [(0.5, 30.0)],
        "compress": [(0.5, 30.0)],
    }
    result = run_fig08(schedule=schedule, cores=8)
    assert len(result.rows) == 6  # 3 systems x 2 apps


def test_fig08_arrivals_independent_of_hash_seed():
    # str hashes are salted per process, so the per-app RNG forks must
    # not be derived from hash(app): same arrivals under any hash seed.
    import os
    import subprocess
    import sys

    import repro

    script = (
        "from repro.experiments.fig08_multiplexing import "
        "DEFAULT_SCHEDULE, _arrival_lists\n"
        "print(_arrival_lists(['logproc', 'compress'], DEFAULT_SCHEDULE, 0))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(".") > 100  # real arrival times, not an empty dict


def test_fig09_two_queries():
    result = run_fig09(scale_factor=0.002, partitions=4, cores=8, queries=["Q1.1", "Q3.2"])
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["dandelion_s"] < row["athena_s"]


def test_sec77_breakdown_sums():
    result = run_sec77()
    total = result.row(step="end_to_end_measured")["seconds"]
    assert total == pytest.approx(2.015, rel=0.1)


def test_fig01_and_fig10_consistency():
    fig01 = run_fig01(duration_seconds=300.0)
    fig10 = run_fig10(duration_seconds=300.0)
    # The same Firecracker replay underlies both figures.
    assert fig01.column("time_s") == fig10.column("time_s") == [
        0.0, 60.0, 120.0, 180.0, 240.0, 300.0
    ]
    assert fig01.column("committed_mib") == fig10.column("firecracker_mib")
    assert fig10.rows[-1]["dandelion_mib"] <= fig10.rows[-1]["firecracker_mib"]


def test_sec8_tables():
    tcb = run_sec8_tcb()
    assert {row["system"] for row in tcb.rows} == {
        "dandelion", "firecracker", "spin/wasmtime", "gvisor",
    }
    enforcement = run_sec8_enforcement()
    for row in enforcement.rows:
        assert row["blocked"] == row["attempts"]


def test_sec8_static_catches_dynamic_corpus():
    # Acceptance bar: the static verifier rejects >= 90% of what the
    # dynamic guard catches, at registration time.
    from repro.experiments.sec8_security import run_sec8_static

    result = run_sec8_static()
    dynamic = [row["operation"] for row in result.rows if row["dynamic"]]
    static = [row["operation"] for row in result.rows if row["static"]]
    assert len(dynamic) == len(result.rows)  # guard catches the whole corpus
    caught = sum(1 for op in dynamic if op in static)
    assert caught / len(dynamic) >= 0.9


def test_fig09_scaling_model():
    from repro.experiments import dandelion_query_seconds, run_fig09_scaling

    result = run_fig09_scaling()
    assert len(result.rows) == 9
    # Latency decreases with node count at every input size.
    for gigabytes in (0.7, 2.0, 7.0):
        latencies = [
            row["dandelion_s"] for row in result.rows if row["input_gb"] == gigabytes
        ]
        assert latencies == sorted(latencies, reverse=True)
    # The model itself validates its arguments.
    with pytest.raises(ValueError):
        dandelion_query_seconds(-1)
    with pytest.raises(ValueError):
        dandelion_query_seconds(1e9, nodes=0)


def test_ascii_chart():
    from repro.experiments import ascii_chart

    chart = ascii_chart([0, 1, 2, 4], width=8, height=4, label="demo")
    lines = chart.splitlines()
    assert len(lines) == 6  # 4 levels + axis + label
    assert "demo" in lines[-1]
    assert "█" in chart
    # The peak row only marks the tail of the series.
    assert lines[0].count("█") < lines[3].count("█")
    with pytest.raises(ValueError):
        ascii_chart([])


def test_fig05_hyperlight_unloaded_matches_paper():
    from repro.experiments import run_fig05

    result = run_fig05(systems=("hyperlight",), rates=(25,), duration_seconds=0.4)
    row = result.rows[0]
    assert row["p50_ms"] == pytest.approx(9.1, rel=0.02)  # §7.2: 9.1 ms


def test_fig07_small_config():
    from repro.experiments import run_fig07

    result = run_fig07(
        configs=(("dandelion", None, None), ("dhybrid", 1, True)),
        rates=(200, 400),
        duration_seconds=0.2,
        cores=4,
    )
    systems = set(result.column("system"))
    assert systems == {"dandelion", "dhybrid-tpc1-pinned"}
    assert {"matmul", "fetch_and_compute"} == set(result.column("workload"))
