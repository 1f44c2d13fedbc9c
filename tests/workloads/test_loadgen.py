"""Tests for open-loop load generation and phase-model registration."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import FIRECRACKER_SNAPSHOT, FaasPlatform, PlatformSpec, compute_phase, io_phase
from repro.data import DataItem, DataSet
from repro.experiments import DandelionLoadModel, matmul_1x1_binary
from repro.sim import Environment, Rng
from repro.workloads import (
    FixedDelayService,
    fetch_and_compute_phases,
    matmul_phases,
    register_phase_composition,
    run_arrivals,
    run_open_loop,
)
from repro.worker import WorkerConfig, WorkerNode


def make_fc(cores=4, hot_ratio=1.0):
    env = Environment()
    platform = FaasPlatform(env, FIRECRACKER_SNAPSHOT, cores, hot_ratio, Rng(0))
    platform.register_function("f", [compute_phase(0.001)])
    return env, platform


def test_deterministic_open_loop_counts():
    env, platform = make_fc()
    result = run_open_loop(env, lambda: platform.request("f"), rate_rps=100, duration_seconds=1.0)
    assert result.completed == 100
    assert result.failed == 0
    assert len(result.latencies) == 100
    assert not result.saturated


def test_poisson_open_loop_roughly_rate():
    env, platform = make_fc()
    result = run_open_loop(
        env, lambda: platform.request("f"), rate_rps=200, duration_seconds=2.0, rng=Rng(4)
    )
    assert 300 < result.completed < 500


def test_warmup_excluded_from_latencies():
    env, platform = make_fc()
    result = run_open_loop(
        env,
        lambda: platform.request("f"),
        rate_rps=100,
        duration_seconds=1.0,
        warmup_seconds=0.5,
    )
    assert result.completed == 100
    assert len(result.latencies) < 100


def test_saturation_detected():
    env, platform = make_fc(cores=1)
    # 1ms-compute function at 5000 RPS on one core: hopeless.
    result = run_open_loop(
        env,
        lambda: platform.request("f"),
        rate_rps=5000,
        duration_seconds=0.5,
        drain_seconds=0.1,
    )
    assert result.saturated


def test_run_arrivals_explicit_times():
    env, platform = make_fc()
    result = run_arrivals(env, lambda: platform.request("f"), [0.0, 0.5, 1.0])
    assert result.completed == 3
    assert result.makespan_seconds >= 1.0


@settings(max_examples=100, deadline=None)
@given(arrivals=st.lists(st.floats(0.0, 0.02, allow_nan=False), max_size=30))
@example([0.0024, 0.0067])  # 0.0024 + (0.0067 - 0.0024) == 0.006699999999999999
def test_every_request_is_submitted_at_its_drawn_arrival(arrivals):
    env, platform = make_fc()
    submitted = []

    def submit():
        submitted.append(env.now)
        return platform.request("f")

    result = run_arrivals(env, submit, arrivals)
    assert submitted == sorted(arrivals)
    assert result.completed == len(arrivals)


def test_a_completion_at_the_cutoff_counts_whatever_the_submitter():
    # One 0.89 ms request (the cold 1x1 matmul on the Morello KVM model)
    # whose run is cut off at exactly its completion.  The load model
    # schedules its completion at submission, the FaaS chain only when
    # its last phase ends, after the cutoff's own entry: both count it.
    inputs = [
        DataSet("a", [DataItem("value", struct.pack("<q", 3))]),
        DataSet("b", [DataItem("value", struct.pack("<q", 5))]),
    ]
    env = Environment()
    model = DandelionLoadModel(env, matmul_1x1_binary(), inputs, ["c"], cores=1)
    service = model.uncached_seconds
    assert round(service * 1e3, 2) == 0.89
    faas_env = Environment()
    spec = PlatformSpec("instant", cold_start_seconds=0.0, hot_start_seconds=0.0)
    faas = FaasPlatform(faas_env, spec, 1, 1.0, Rng(0))
    faas.register_function("f", [io_phase(service)])
    for env, submit in ((env, model.request), (faas_env, lambda: faas.request("f"))):
        result = run_arrivals(env, submit, [0.0], duration_seconds=service, drain_seconds=0.0)
        assert (result.completed, result.makespan_seconds) == (1, service)
        assert result.latencies.mean == service


def test_failed_invocations_counted():
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
    register_phase_composition(worker, "m", matmul_phases(1e-4))
    # Invoke with the wrong inputs: every invocation fails.
    result = run_open_loop(
        worker.env,
        lambda: worker.frontend.invoke("m", {}),
        rate_rps=10,
        duration_seconds=0.5,
    )
    assert result.failed == 5
    assert result.completed == 0


def test_register_phase_composition_compute_only():
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
    name = register_phase_composition(worker, "mm", matmul_phases(2.5e-3))
    result = worker.invoke_and_run(name, {"data": b"x"})
    assert result.ok
    assert result.latency >= 2.5e-3


def test_register_phase_composition_with_io():
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
    name = register_phase_composition(worker, "fc2", fetch_and_compute_phases(2))
    result = worker.invoke_and_run(name, {"data": b"x"})
    assert result.ok
    # 2 io phases at ~1.2ms each plus compute: at least ~2.8ms.
    assert result.latency > 2.4e-3


def test_phase_chain_length_scales_latency():
    latencies = []
    for depth in (2, 8):
        worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
        name = register_phase_composition(worker, f"chain{depth}", fetch_and_compute_phases(depth))
        result = worker.invoke_and_run(name, {"data": b"x"})
        assert result.ok
        latencies.append(result.latency)
    assert latencies[1] > 2.5 * latencies[0]


def test_empty_phases_rejected():
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
    with pytest.raises(ValueError):
        register_phase_composition(worker, "none", [])


def test_fixed_delay_service():
    from repro.net import HttpRequest
    service = FixedDelayService("s.internal", 0.005, response_bytes=100)
    response = service.handle(HttpRequest("GET", "http://s.internal/"))
    assert response.ok
    assert len(response.body) == 100
    assert service.service_seconds(None, response) == 0.005
