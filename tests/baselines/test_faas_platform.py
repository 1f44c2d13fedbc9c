"""Tests for the traditional-FaaS baseline platform model."""

import pytest

from repro.baselines import (
    FIRECRACKER,
    FIRECRACKER_SNAPSHOT,
    GVISOR,
    WASMTIME,
    FaasPlatform,
    Phase,
    compute_phase,
    io_phase,
)
from repro.sim import Environment, Rng


def make_platform(spec=FIRECRACKER_SNAPSHOT, hot_ratio=1.0, cores=4, seed=0):
    env = Environment()
    platform = FaasPlatform(env, spec, cores, hot_ratio, Rng(seed))
    return env, platform


def test_phase_validation():
    with pytest.raises(ValueError):
        Phase("gpu", 1.0)
    with pytest.raises(ValueError):
        Phase("compute", -1.0)


def test_hot_request_latency_no_cold_start():
    env, platform = make_platform()
    platform.register_function("f", [compute_phase(0.002)])
    record = env.run(until=platform.request("f"))
    assert not record.cold
    expected = FIRECRACKER_SNAPSHOT.hot_start_seconds + 0.002 * FIRECRACKER_SNAPSHOT.compute_slowdown
    assert record.latency == pytest.approx(expected, rel=1e-6)


def test_cold_request_pays_boot():
    env, platform = make_platform(hot_ratio=0.0)
    platform.register_function("f", [compute_phase(0.002)])
    record = env.run(until=platform.request("f"))
    assert record.cold
    assert record.latency > FIRECRACKER_SNAPSHOT.cold_start_seconds


def test_fresh_boot_much_slower_than_snapshot():
    _env1, fresh = make_platform(spec=FIRECRACKER, hot_ratio=0.0)
    fresh.register_function("f", [compute_phase(0.001)])
    record_fresh = fresh.env.run(until=fresh.request("f"))
    _env2, snap = make_platform(spec=FIRECRACKER_SNAPSHOT, hot_ratio=0.0)
    snap.register_function("f", [compute_phase(0.001)])
    record_snap = snap.env.run(until=snap.request("f"))
    # Fresh boot ~150 ms vs restore (~12 ms + demand paging).
    assert record_fresh.latency > 4 * record_snap.latency


def test_hot_ratio_statistics():
    env, platform = make_platform(hot_ratio=0.97, seed=5)
    platform.register_function("f", [compute_phase(1e-4)])

    def run_many():
        for _ in range(1000):
            yield platform.request("f")

    env.run(until=env.process(run_many()))
    assert 0.01 < platform.cold_fraction() < 0.06


def test_hot_ratio_bounds_validated():
    with pytest.raises(ValueError):
        make_platform(hot_ratio=1.5)


def test_policy_argument_removed():
    # Sandbox policy objects are gone: the hot ratio is a plain argument.
    with pytest.raises(TypeError):
        FaasPlatform(Environment(), FIRECRACKER_SNAPSHOT, cores=4, policy=object())


def test_io_phase_does_not_consume_cpu():
    env, platform = make_platform(cores=1)
    platform.register_function("io_heavy", [io_phase(0.05)])
    first = platform.request("io_heavy")
    second = platform.request("io_heavy")
    env.run(until=env.all_of([first, second]))
    # Two 50ms IO tasks overlap on one core.
    assert env.now < 0.08


def test_compute_contention_on_shared_cores():
    env, platform = make_platform(cores=1)
    platform.register_function("f", [compute_phase(0.01)])
    requests = [platform.request("f") for _ in range(4)]
    env.run(until=env.all_of(requests))
    # 4x10ms on one core (plus slowdown): strictly serialized-ish.
    assert env.now >= 0.04


def test_compute_slowdown_applied():
    env, platform = make_platform(spec=WASMTIME)
    platform.register_function("f", [compute_phase(0.01)])
    record = env.run(until=platform.request("f"))
    assert record.latency >= 0.01 * WASMTIME.compute_slowdown


def test_gvisor_slower_than_snapshot_cold():
    assert GVISOR.cold_start_seconds > FIRECRACKER_SNAPSHOT.cold_start_seconds


def test_per_function_latencies_tracked():
    env, platform = make_platform()
    platform.register_function("a", [compute_phase(0.001)])
    platform.register_function("b", [compute_phase(0.002)])
    env.run(until=env.all_of([platform.request("a"), platform.request("b")]))
    assert platform.per_function_latencies["a"].count == 1
    assert platform.per_function_latencies["b"].count == 1


def test_duplicate_function_rejected():
    _env, platform = make_platform()
    platform.register_function("f", [compute_phase(0.001)])
    with pytest.raises(ValueError):
        platform.register_function("f", [compute_phase(0.001)])


def test_unknown_function_rejected():
    _env, platform = make_platform()
    with pytest.raises(KeyError):
        platform.request("ghost")


def test_function_model_aggregates():
    from repro.baselines import FunctionModel
    model = FunctionModel("f", (compute_phase(1.0), io_phase(2.0), compute_phase(0.5)))
    assert model.compute_seconds == 1.5
    assert model.io_seconds == 2.0
