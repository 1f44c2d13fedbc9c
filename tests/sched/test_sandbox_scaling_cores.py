"""The baseline hot/cold draw, and pins that the scheduling modules no
workload reached stay deleted.

``FaasPlatform`` makes one sandbox decision (§7.1): a single
``rng.bernoulli(hot_ratio)`` draw per request, at arrival, with a
standing hot pool of 8 sandboxes per function while ``hot_ratio > 0``.
"""

import importlib

import pytest

from repro.baselines import FIRECRACKER_SNAPSHOT, FaasPlatform, compute_phase
from repro.sim import Environment, Rng


def platform(hot_ratio, seed=0):
    env = Environment()
    faas = FaasPlatform(env, FIRECRACKER_SNAPSHOT, 4, hot_ratio, Rng(seed))
    faas.register_function("f", [compute_phase(1e-4)])
    return env, faas


def cold_pattern(hot_ratio, seed, count):
    env, faas = platform(hot_ratio, seed)
    return [env.run(until=faas.request("f")).cold for _ in range(count)]


def test_fixed_hot_ratio_extremes():
    assert cold_pattern(1.0, 0, 20) == [False] * 20
    assert cold_pattern(0.0, 0, 20) == [True] * 20


def test_fixed_hot_ratio_decisions_are_seeded():
    pattern = cold_pattern(0.6, 4, 100)
    assert pattern == cold_pattern(0.6, 4, 100)
    # One draw per request, in arrival order, from the platform's stream.
    stream = Rng(4)
    assert pattern == [not stream.bernoulli(0.6) for _ in range(100)]
    assert set(pattern) == {True, False}


def test_fixed_hot_ratio_validates_ratio():
    for ratio in (1.5, -0.1):
        with pytest.raises(ValueError):
            FaasPlatform(Environment(), FIRECRACKER_SNAPSHOT, 4, ratio, Rng(0))


@pytest.mark.parametrize("module", [
    "repro.cluster.autoscaler",
    "repro.sched.cores",
    "repro.sched.hints",
    "repro.sched.sandbox",
    "repro.sched.scaling",
])
def test_deleted_scheduling_modules_stay_deleted(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
