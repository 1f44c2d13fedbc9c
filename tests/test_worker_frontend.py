"""Tests for the worker node assembly and the HTTP frontend."""

import json

import pytest

from repro.composition.registry import RegistryError
from repro.functions import compute_function
from repro.net import HttpRequest
from repro.worker import WorkerConfig, WorkerNode


@compute_function(compute_cost=1e-4)
def shout(vfs):
    text = vfs.read_text("/in/text/text")
    vfs.write_text("/out/result/text", text.upper())


SHOUT_DSL = """
composition shout_comp {
    compute s uses shout in(text) out(result);
    input text -> s.text;
    output s.result -> result;
}
"""


def make_worker(**kwargs):
    kwargs.setdefault("total_cores", 4)
    kwargs.setdefault("control_plane_enabled", False)
    worker = WorkerNode(WorkerConfig(**kwargs))
    worker.frontend.register_function(shout)
    worker.frontend.register_composition(SHOUT_DSL)
    return worker


def test_worker_config_validation():
    with pytest.raises(ValueError):
        WorkerConfig(total_cores=1)


def test_worker_core_split():
    # One communication engine to start; the control plane moves cores
    # at runtime when enabled.
    worker = WorkerNode(WorkerConfig(total_cores=8, control_plane_enabled=False))
    assert worker.compute_group.engine_count == 7
    assert worker.comm_group.engine_count == 1
    assert worker.total_engine_cores == 8


def test_invoke_and_run_shortcut():
    worker = make_worker()
    result = worker.invoke_and_run("shout_comp", {"text": b"quiet"})
    assert result.ok
    assert result.output("result").item("text").data == b"QUIET"


def test_unknown_composition_raises_at_the_call_site():
    # Frontend and dispatcher alike: the typed error leaves invoke() /
    # start() itself, with nothing scheduled and no invocation counted.
    worker = make_worker()
    scheduled = worker.env.events_scheduled
    for layer in (worker.frontend, worker.dispatcher):
        for entry in (layer.invoke, lambda *args: layer.start(*args, print)):
            with pytest.raises(RegistryError, match="unknown composition 'nope'"):
                entry("nope", {"text": b"x"})
    assert worker.env.events_scheduled == scheduled
    assert worker.dispatcher.invocations_started == 0


def test_string_input_encoded():
    worker = make_worker()
    result = worker.invoke_and_run("shout_comp", {"text": "string input"})
    assert result.output("result").item("text").data == b"STRING INPUT"


def test_stats_shape():
    worker = make_worker()
    worker.invoke_and_run("shout_comp", {"text": b"x"})
    stats = worker.stats()
    assert stats["invocations_completed"] == 1
    assert stats["compute_tasks"] == 1
    assert stats["committed_bytes"] == 0
    assert stats["peak_committed_bytes"] > 0


def test_http_unknown_endpoint():
    worker = make_worker()
    served = worker.env.event()
    worker.frontend.serve(HttpRequest("GET", "http://dandelion.internal/other"), served.succeed)
    assert worker.env.run(until=served).status == 404


def test_http_full_invocation_roundtrip():
    worker = make_worker()
    request = HttpRequest(
        "POST",
        "http://dandelion.internal/v1/invoke/shout_comp",
        body=json.dumps({"text": "over http"}).encode(),
    )
    served = worker.env.event()
    worker.frontend.serve(request, served.succeed)
    response = worker.env.run(until=served)
    assert response.status == 200
    payload = json.loads(response.body)
    assert bytes.fromhex(payload["result"]["text"]) == b"OVER HTTP"


def test_http_invocation_bad_json():
    worker = make_worker()
    request = HttpRequest(
        "POST", "http://dandelion.internal/v1/invoke/shout_comp", body=b"{broken"
    )
    served = worker.env.event()
    worker.frontend.serve(request, served.succeed)
    response = worker.env.run(until=served)
    assert response.status == 400


@pytest.mark.parametrize("body", [b"[1, 2]", b'{"text": 5}', b'"text"'])
def test_http_invocation_json_that_is_not_an_object_of_strings_is_400(body):
    worker = make_worker()
    request = HttpRequest("POST", "http://dandelion.internal/v1/invoke/shout_comp", body=body)
    served = worker.env.event()
    worker.frontend.serve(request, served.succeed)
    assert worker.env.run(until=served).status == 400


def test_serialize_failed_result_is_500():
    worker = make_worker()
    result = worker.invoke_and_run("shout_comp", {})  # missing inputs
    response = worker.frontend.serialize_result(result)
    assert response.status == 500


def test_control_plane_runs_by_default():
    worker = WorkerNode(WorkerConfig(total_cores=4))
    worker.frontend.register_function(shout)
    worker.frontend.register_composition(SHOUT_DSL)
    result = worker.invoke_and_run("shout_comp", {"text": b"cp"})
    assert result.ok
    assert worker.allocator.enabled


# -- options that only ever took one value are module constants ----------------


def _worker():
    return WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))


def _build(constructor, **kwargs):
    from repro.baselines import FIRECRACKER_SNAPSHOT, DHybridPlatform, FaasPlatform
    from repro.baselines.base import FunctionModel, PlatformSpec
    from repro.cluster import ClusterManager, WorkerFaultInjector
    from repro.cluster.health import LatencyHealthTracker
    from repro.controlplane import CoreAllocator
    from repro.dispatcher import Dispatcher
    from repro.cluster.sharding import ShardPlan
    from repro.dispatcher.windowed import WindowedRouter
    from repro.engines import CommunicationEngine
    from repro.engines.throttle import EngineThrottle
    from repro.sched import JSQ, GrayFailureAware, LocalityAware
    from repro.sim import Environment, Rng
    from repro.sim.sharded import ShardedConfig

    if constructor == "WorkerConfig":
        return WorkerConfig(**kwargs)
    if constructor == "WorkerNode":
        return WorkerNode(WorkerConfig(total_cores=4), **kwargs)
    if constructor == "Dispatcher":
        worker = _worker()
        return Dispatcher(worker.env, worker.registry, worker.compute_group, worker.comm_group, **kwargs)
    if constructor == "CoreAllocator":
        worker = _worker()
        return CoreAllocator(worker.env, worker.compute_group, worker.comm_group, **kwargs)
    if constructor == "LatencyHealthTracker":
        return LatencyHealthTracker(**kwargs)
    if constructor == "ClusterManager":
        return ClusterManager(worker_count=1, **kwargs)
    if constructor == "WorkerFaultInjector":
        cluster = ClusterManager(worker_count=1)
        return WorkerFaultInjector(cluster, mttf_seconds=1.0, mttr_seconds=1.0, **kwargs)
    if constructor == "CommunicationEngine":
        worker = _worker()
        return CommunicationEngine(worker.env, worker.comm_group, worker.network, **kwargs)
    if constructor == "JSQ":
        return JSQ(Rng(0), **kwargs)
    if constructor == "LocalityAware":
        return LocalityAware(**kwargs)
    if constructor == "GrayFailureAware":
        return GrayFailureAware(**kwargs)
    if constructor == "ShardedConfig":
        return ShardedConfig(workers=1, **kwargs)
    if constructor == "PlatformSpec":
        return PlatformSpec("spec", cold_start_seconds=0.1, hot_start_seconds=0.001, **kwargs)
    if constructor == "FaasPlatform.register_function":
        platform = FaasPlatform(Environment(), FIRECRACKER_SNAPSHOT, 1, 0.5, Rng(0))
        return platform.register_function("f", (), **kwargs)
    if constructor == "FunctionModel":
        return FunctionModel("f", (), **kwargs)
    if constructor == "DHybridPlatform":
        return DHybridPlatform(Environment(), cores=1, **kwargs)
    if constructor == "EngineThrottle":
        return EngineThrottle(**kwargs)
    if constructor == "WindowedRouter.route_window":
        return WindowedRouter(ShardPlan(1, 1)).route_window([], **kwargs)
    raise AssertionError(constructor)


# Each keyword at its old default: the value is now a module constant.
_REMOVED_OPTIONS = [
    ("WorkerConfig", "initial_comm_cores", 1),
    ("WorkerConfig", "control_epoch_seconds", 0.030),
    ("WorkerConfig", "pi_config", None),
    ("WorkerConfig", "cold_load_fraction", 0.0),
    ("WorkerNode", "registry", None),
    ("Dispatcher", "cache_rng", None),
    ("Dispatcher", "cold_load_fraction", 0.0),
    ("Dispatcher", "retry_backoff_base", 1e-3),
    ("CoreAllocator", "epoch_seconds", 0.030),
    ("CoreAllocator", "config", None),
    ("CoreAllocator", "min_engines", 1),
    ("LatencyHealthTracker", "alpha", 0.2),
    ("LatencyHealthTracker", "quarantine_factor", 2.0),
    ("LatencyHealthTracker", "release_factor", 1.4),
    ("LatencyHealthTracker", "min_samples", 8),
    ("ClusterManager", "env", None),
    ("ClusterManager", "network", None),
    ("ClusterManager", "max_reroutes", 3),
    ("ClusterManager", "hedge_min_samples", 20),
    ("WorkerFaultInjector", "spare_last_healthy", True),
    ("CommunicationEngine", "max_retries", 2),
    ("JSQ", "d", 2),
    ("LocalityAware", "spill_margin", 3),
    ("GrayFailureAware", "spill_margin", 3),
    ("ShardedConfig", "dispatch_delay_seconds", 0.0005),
    ("ShardedConfig", "grid_step", 60.0),
    ("ShardedConfig", "creation_seconds", 0.001),
    ("ShardedConfig", "guest_overhead_bytes", 40 << 20),
    ("ShardedConfig", "cold_start_seconds", 0.812),
    ("ShardedConfig", "hot_start_seconds", 0.0014),
    ("ShardedConfig", "paging_seconds_per_mib", 0.00012),
    ("ShardedConfig", "compute_slowdown", 1.05),
    ("PlatformSpec", "cold_start_uses_cpu", True),
    ("FaasPlatform.register_function", "memory_bytes", None),
    ("FunctionModel", "memory_bytes", None),
    ("DHybridPlatform", "backend", None),
    ("WorkerConfig", "comm_failure_rate", 0.0),
    ("CommunicationEngine", "failure_rng", None),
    ("CommunicationEngine", "transient_failure_rate", 0.0),
    ("EngineThrottle", "multiplier", 1.0),
    ("WindowedRouter.route_window", "dispatch_delay", 0.0005),
]


@pytest.mark.parametrize(
    "constructor, keyword, value",
    _REMOVED_OPTIONS,
    ids=[f"{constructor}-{keyword}" for constructor, keyword, _value in _REMOVED_OPTIONS],
)
def test_removed_option_is_a_type_error(constructor, keyword, value):
    with pytest.raises(TypeError):
        _build(constructor, **{keyword: value})


def test_fraction_cache_mode_and_pi_config_are_gone():
    from repro.dispatcher import Dispatcher

    worker = _worker()
    with pytest.raises(ValueError, match="cache_mode"):
        Dispatcher(worker.env, worker.registry, worker.compute_group, worker.comm_group,
                   cache_mode="fraction")
    with pytest.raises(ImportError):
        from repro.controlplane import PiConfig  # noqa: F401
