"""Tests for the synthetic Azure-trace population, its stream statistics, and sampling."""

import pytest

from repro.sim import Rng
from repro.trace import (
    StreamedTrace,
    TraceFunction,
    generate_functions,
    sample_functions,
    streamed_trace,
)


def test_trace_determinism():
    a = streamed_trace(function_count=20, duration_seconds=100, total_rps=2, seed=7)
    b = streamed_trace(function_count=20, duration_seconds=100, total_rps=2, seed=7)
    assert a.functions == b.functions
    assert list(a.iter_invocations()) == list(b.iter_invocations())


def test_different_seed_different_trace():
    a = generate_functions(20, total_rps=2, rng=Rng(1))
    b = generate_functions(20, total_rps=2, rng=Rng(2))
    assert [f.mean_rate_rps for f in a] != [f.mean_rate_rps for f in b]
    assert [f.memory_bytes for f in a] != [f.memory_bytes for f in b]


def test_invocations_sorted_and_in_window():
    # Timer-driven functions only, at the shortest period and widest
    # burst the population can draw: jittered bursts of consecutive
    # periods must still merge into one monotone stream.
    timers = [
        TraceFunction(
            name=f"timer{index}", median_duration_seconds=0.05, duration_sigma=0.4,
            memory_bytes=32 << 20, pattern="periodic", mean_rate_rps=4 / 30.0,
            period_seconds=30.0, burst_size=4,
        )
        for index in range(5)
    ]
    times = [t for t, _fn, _d in StreamedTrace(timers, 300.0, 3).iter_invocations()]
    assert len(times) > 150
    assert times == sorted(times)
    assert all(0 <= t < 300 for t in times)


def test_total_rate_roughly_requested():
    trace = streamed_trace(function_count=100, duration_seconds=1200, total_rps=5, seed=4)
    average_rps = sum(1 for _ in trace.iter_invocations()) / trace.duration_seconds
    # Rare-pattern clamping may trim a little; stay within a factor.
    assert 2.0 < average_rps < 8.0


def test_rate_skew_matches_azure_characterisation():
    functions = generate_functions(200, total_rps=10, rng=Rng(5))
    rates = sorted(f.mean_rate_rps for f in functions)
    rare = sum(1 for r in rates if r <= 1 / 60)
    # Most functions average less than one invocation per minute.
    assert rare / len(rates) > 0.6
    # And the hottest function carries far more than the median.
    assert rates[-1] > 50 * rates[len(rates) // 2]


def test_durations_heavy_tailed_but_bounded():
    trace = streamed_trace(function_count=100, duration_seconds=600, total_rps=10, seed=6)
    durations = sorted(d for _t, _fn, d in trace.iter_invocations())
    assert all(0.01 <= d <= 10.0 for d in durations)
    median = durations[len(durations) // 2]
    assert 0.02 < median < 2.0
    assert durations[-1] > 3 * median


def test_memory_bounds():
    functions = generate_functions(100, total_rps=5, rng=Rng(8))
    MiB = 1 << 20
    assert all(16 * MiB <= f.memory_bytes <= 512 * MiB for f in functions)


def test_pattern_mix_present():
    functions = generate_functions(200, total_rps=10, rng=Rng(9))
    patterns = {f.pattern for f in functions}
    assert patterns == {"steady", "periodic", "rare"}


def test_periodic_functions_have_period_and_bounded_burst():
    functions = generate_functions(200, total_rps=10, rng=Rng(10))
    for f in functions:
        if f.pattern == "periodic":
            assert f.period_seconds > 0
            assert 1 <= f.burst_size <= 4


def test_generate_functions_validation():
    with pytest.raises(ValueError):
        generate_functions(0, total_rps=1, rng=Rng(0))
    with pytest.raises(ValueError):
        generate_functions(10, total_rps=0, rng=Rng(0))


def test_sample_functions_size_and_membership():
    functions = generate_functions(200, total_rps=10, rng=Rng(12))
    picked = sample_functions(functions, 50, Rng(13))
    assert len(picked) == 50
    assert len({f.name for f in picked}) == 50
    names = {f.name for f in functions}
    assert all(f.name in names for f in picked)


def test_sample_preserves_rate_spread():
    functions = generate_functions(300, total_rps=20, rng=Rng(14))
    picked = sample_functions(functions, 60, Rng(15))
    all_rates = sorted(f.mean_rate_rps for f in functions)
    picked_rates = sorted(f.mean_rate_rps for f in picked)
    # The sample must include both tails, which uniform sampling of so
    # few functions would likely miss at the top.
    assert picked_rates[0] <= all_rates[len(all_rates) // 4]
    assert picked_rates[-1] >= all_rates[-len(all_rates) // 10]


def test_sample_validation():
    functions = generate_functions(10, total_rps=1, rng=Rng(0))
    with pytest.raises(ValueError):
        sample_functions(functions, 0, Rng(0))
    with pytest.raises(ValueError):
        sample_functions(functions, 11, Rng(0))


def test_sample_trace_restricts_invocations():
    population = generate_functions(50, total_rps=5, rng=Rng(16).fork(1))
    sampled = streamed_trace(
        function_count=50, duration_seconds=300, total_rps=5, seed=16, sample_size=10
    )
    assert sampled.function_count == 10
    assert {f.name for f in sampled.functions} <= {f.name for f in population}
    assert sampled.duration_seconds == 300
    indices = {index for _t, index, _d in sampled.iter_invocations()}
    assert indices and indices <= set(range(10))
