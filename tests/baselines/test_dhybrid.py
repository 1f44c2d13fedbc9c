"""Tests for the D-hybrid ablation platform (§7.5)."""

import pytest

from repro.baselines import DHybridPlatform, compute_phase, io_phase
from repro.sim import Environment
from repro.workloads import run_arrivals


def test_config_validation():
    env = Environment()
    with pytest.raises(ValueError):
        DHybridPlatform(env, cores=0)
    with pytest.raises(ValueError):
        DHybridPlatform(env, cores=2, threads_per_core=0)
    with pytest.raises(ValueError):
        DHybridPlatform(env, cores=2, threads_per_core=2, pinned=True)


def test_pinned_compute_runs_at_native_speed():
    env = Environment()
    platform = DHybridPlatform(env, cores=2, threads_per_core=1, pinned=True)
    platform.register_function("matmul", [compute_phase(0.01)])
    record = env.run(until=platform.request("matmul"))
    assert record.latency == pytest.approx(0.01, abs=0.001)


def test_pinned_io_holds_core_idle():
    env = Environment()
    platform = DHybridPlatform(env, cores=1, threads_per_core=1, pinned=True)
    platform.register_function("fetch", [io_phase(0.05)])
    first = platform.request("fetch")
    second = platform.request("fetch")
    env.run(until=env.all_of([first, second]))
    # Pinned: the io wait holds the only core, so requests serialize.
    assert env.now >= 0.10


def test_pinned_ties_complete_in_arrival_order():
    # Two pinned cores, residency c: two requests at 0 finish at c, a
    # third waits, and a fourth arrives at exactly c.  Both start at c
    # and finish at 2c, in arrival order (a Resource-granted core pool
    # let the newcomer finish first).
    solo = Environment()
    probe = DHybridPlatform(solo, cores=2, pinned=True)
    probe.register_function("f", [compute_phase(0.001), io_phase(0.002)])
    c = solo.run(until=probe.request("f")).latency
    env = Environment()
    platform = DHybridPlatform(env, cores=2, pinned=True)
    platform.register_function("f", [compute_phase(0.001), io_phase(0.002)])
    run_arrivals(env, lambda: platform.request("f"), [0.0, 0.0, 0.0, c])
    assert [(r.arrived_at, r.finished_at) for r in platform.records] == [
        (0.0, c), (0.0, c), (0.0, c + c), (c, c + c)
    ]
    assert platform.latencies.mean == (c + c + (c + c) + c) / 4


def test_unpinned_io_overlaps():
    env = Environment()
    platform = DHybridPlatform(env, cores=1, threads_per_core=4, pinned=False)
    platform.register_function("fetch", [io_phase(0.05)])
    requests = [platform.request("fetch") for _ in range(4)]
    env.run(until=env.all_of(requests))
    # 4 threads per core: all four io waits overlap.
    assert env.now < 0.08


def test_unpinned_compute_contends():
    env = Environment()
    pinned_env = Environment()
    unpinned = DHybridPlatform(env, cores=2, threads_per_core=4, pinned=False)
    pinned = DHybridPlatform(pinned_env, cores=2, threads_per_core=1, pinned=True)
    for platform in (unpinned, pinned):
        platform.register_function("matmul", [compute_phase(0.01)])
    # 8 concurrent compute tasks.
    env.run(until=env.all_of([unpinned.request("matmul") for _ in range(8)]))
    unpinned_makespan = env.now
    pinned_env.run(until=pinned_env.all_of([pinned.request("matmul") for _ in range(8)]))
    pinned_makespan = pinned_env.now
    # Same total work, but unpinned pays context switches under
    # oversubscription.
    assert unpinned_makespan >= pinned_makespan


def test_every_request_is_cold_start():
    env = Environment()
    platform = DHybridPlatform(env, cores=2)
    platform.register_function("f", [compute_phase(0.001)])
    record = env.run(until=platform.request("f"))
    assert record.cold
    # Dandelion-class creation cost: sub-millisecond, not Firecracker's.
    assert record.latency < 0.005


def test_admission_limits_concurrency():
    env = Environment()
    platform = DHybridPlatform(env, cores=1, threads_per_core=2, pinned=False)
    platform.register_function("fetch", [io_phase(0.05)])
    requests = [platform.request("fetch") for _ in range(4)]
    env.run(until=env.all_of(requests))
    # Only 2 threads admitted at a time: two waves of 50ms io.
    assert env.now >= 0.10


def test_unknown_function_rejected():
    env = Environment()
    platform = DHybridPlatform(env, cores=1)
    with pytest.raises(KeyError):
        platform.request("ghost")


def test_duplicate_function_rejected():
    env = Environment()
    platform = DHybridPlatform(env, cores=1)
    platform.register_function("f", [compute_phase(0.001)])
    with pytest.raises(ValueError):
        platform.register_function("f", [compute_phase(0.001)])
