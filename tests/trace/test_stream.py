"""Streamed trace generation and the stratified sampler at scale."""

import contextlib
import dataclasses
import itertools
import math
import signal
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.distributions import Rng
from repro.trace.azure import (
    _DURATION_MAX,
    _DURATION_MIN,
    TraceFunction,
    generate_functions,
)
from repro.trace.sampler import sample_functions
from repro.trace.stream import StreamedTrace, streamed_trace

from .merge_oracle import merged_invocations, partitioned


def test_stream_is_time_ordered_and_bounded():
    trace = streamed_trace(function_count=300, duration_seconds=120.0, total_rps=60.0)
    last = 0.0
    count = 0
    for t, index, duration in trace.iter_invocations():
        assert t >= last
        assert 0.0 <= t < trace.duration_seconds
        assert 0 <= index < trace.function_count
        assert _DURATION_MIN <= duration <= _DURATION_MAX
        last = t
        count += 1
    assert count > 1000


def test_stream_is_replayable_byte_identical():
    trace = streamed_trace(function_count=200, duration_seconds=60.0, total_rps=40.0)
    first = list(trace.iter_invocations())
    second = list(trace.iter_invocations())
    assert first == second


def test_per_function_streams_independent_of_consumption():
    # The invariance argument leans on this: a function's invocation
    # sequence must not depend on how the other functions are consumed.
    trace = streamed_trace(function_count=50, duration_seconds=60.0, total_rps=20.0)
    full = [inv for inv in trace.iter_invocations() if inv[1] == 7]
    partial = [
        inv
        for inv in itertools.islice(trace.iter_invocations(), 200)
        if inv[1] == 7
    ]
    assert full[: len(partial)] == partial


def test_seed_changes_stream():
    a = streamed_trace(function_count=50, duration_seconds=30.0, total_rps=10.0, seed=1)
    b = streamed_trace(function_count=50, duration_seconds=30.0, total_rps=10.0, seed=2)
    assert list(a.iter_invocations()) != list(b.iter_invocations())


def _function(**fields):
    base = dict(
        name="fn", median_duration_seconds=0.1, duration_sigma=0.4,
        memory_bytes=1 << 20, pattern="steady", mean_rate_rps=1.0,
    )
    return TraceFunction(**{**base, **fields})


@contextlib.contextmanager
def _within(seconds):
    """Fail instead of hanging: an unvalidated zero period or negative
    rate loops forever, some of them without ever yielding."""

    def expired(_signum, _frame):
        raise AssertionError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "fields",
    [
        dict(pattern="bursty"),
        dict(mean_rate_rps=0.0),     # was a bare ZeroDivisionError
        dict(mean_rate_rps=-1.0),    # was an endless loop
        dict(mean_rate_rps=float("inf")),
        dict(mean_rate_rps=float("nan")),
        dict(pattern="periodic", period_seconds=0.0),  # was an endless loop
        dict(pattern="periodic", period_seconds=2.0),  # was out of time order
        dict(pattern="periodic", period_seconds=30.0, burst_size=0),
        dict(median_duration_seconds=0.0),
        dict(duration_sigma=-0.1),
    ],
    ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()),
)
def test_malformed_function_is_rejected_by_name(fields):
    with _within(1.0), pytest.raises(ValueError, match="'fn-bad'"):
        trace = StreamedTrace([_function(), _function(name="fn-bad", **fields)], 60.0, 3)
        list(itertools.islice(trace.iter_invocations(), 1000))


def test_negative_duration_and_non_positive_window_are_rejected():
    with pytest.raises(ValueError, match="duration_seconds"):
        StreamedTrace([_function()], -1.0, 3)
    trace = StreamedTrace([_function()], 60.0, 3)
    for window in (0.0, -0.5, float("nan")):
        with _within(1.0), pytest.raises(ValueError, match="window_seconds"):
            next(trace.iter_windows(window))


def test_shortest_accepted_period_stays_in_time_order():
    timer = _function(pattern="periodic", period_seconds=10.0, burst_size=4)
    times = [t for t, _fn, _d in StreamedTrace([timer], 600.0, 3).iter_invocations()]
    assert len(times) > 200 and times == sorted(times)


_FUNCTIONS = st.lists(
    st.builds(
        _function,
        pattern=st.sampled_from(["steady", "periodic", "rare"]),
        # Relative rates over four decades; the property scales them to
        # a drawn total so an example stays a few thousand arrivals.
        mean_rate_rps=st.floats(-3.0, 1.0).map(lambda decade: 10.0 ** decade),
        period_seconds=st.sampled_from([10.0, 30.0, 45.5]),
        burst_size=st.integers(1, 4),
        median_duration_seconds=st.floats(0.002, 3.0),
    ),
    min_size=1,
    max_size=200,
)
_BOUNDARY_FN = _function(mean_rate_rps=0.2)
_BOUNDARY_T = next(merged_invocations(StreamedTrace([_BOUNDARY_FN], 61.7, 5)))[0]


def _window_of(t, window):
    return next(k for k in itertools.count() if t < (k + 1) * window)


def _windows_the_quotient_misfiles(t):
    """Window lengths, a few ulps around ``t / k``, for which
    ``int(t / window)`` is one below and one above the window whose
    ``(k + 1) * window`` end the coordinator compares ``t`` against."""
    found = {}
    for k in range(2, 400):
        window = math.nextafter(t / k, 0.0)
        for _ in range(3):
            found.setdefault(int(t / window) - _window_of(t, window), window)
            window = math.nextafter(window, math.inf)
    return found[-1], found[1]


# Pinned: the first arrival exactly on the end of window 0 (its own
# time as the window length), then just inside and just outside a
# boundary where dividing by the window length rounds across it.
_BOUNDARY_WINDOWS = (_BOUNDARY_T, *_windows_the_quotient_misfiles(_BOUNDARY_T))


@settings(max_examples=60, deadline=None)
@given(
    functions=_FUNCTIONS,
    total_rps=st.floats(0.5, 150.0),
    seed=st.integers(0, 2**31 - 1),
    duration=st.sampled_from([3.0, 20.0, 61.7]),
    window=st.sampled_from([0.1, 0.3, 0.5, 7.0, 100.0]) | st.floats(0.05, 90.0),
)
@example([_BOUNDARY_FN], 0.2, 5, 61.7, _BOUNDARY_WINDOWS[0])
@example([_BOUNDARY_FN], 0.2, 5, 61.7, _BOUNDARY_WINDOWS[1])
@example([_BOUNDARY_FN], 0.2, 5, 61.7, _BOUNDARY_WINDOWS[2])
def test_windows_match_the_heap_merge_oracle(functions, total_rps, seed, duration, window):
    scale = total_rps / sum(fn.mean_rate_rps for fn in functions)
    trace = StreamedTrace(
        [dataclasses.replace(fn, mean_rate_rps=fn.mean_rate_rps * scale) for fn in functions],
        duration,
        seed,
    )
    expected = list(merged_invocations(trace))
    assert list(trace.iter_invocations()) == expected
    windows = list(trace.iter_windows(window))
    assert windows == partitioned(expected, window, duration)
    assert all(isinstance(batch, list) for batch in windows)


def test_pinned_examples_sit_on_window_boundaries():
    on, low, high = _BOUNDARY_WINDOWS
    trace = StreamedTrace([_BOUNDARY_FN], 61.7, 5)
    windows = list(trace.iter_windows(on))
    assert windows[0] == [] and windows[1][0][0] == _BOUNDARY_T == 1 * on
    assert int(_BOUNDARY_T / low) == _window_of(_BOUNDARY_T, low) - 1
    assert int(_BOUNDARY_T / high) == _window_of(_BOUNDARY_T, high) + 1


class TestSamplerAtScale:
    """Stratified sampling over >=10k-function populations (satellite)."""

    @pytest.fixture(scope="class")
    def population(self):
        return generate_functions(10_000, 1200.0, Rng(42))

    def test_strata_proportions_preserved(self, population):
        sample = sample_functions(population, 500, Rng(7), strata=5)
        assert len(sample) == 500
        assert len({f.name for f in sample}) == 500
        # Quantile strata by rate: each stratum of the population must
        # contribute ~proportionally (equal-sized strata -> ~100 each).
        ordered = sorted(population, key=lambda f: f.mean_rate_rps)
        rank = {f.name: i for i, f in enumerate(ordered)}
        per_stratum = [0] * 5
        for f in sample:
            per_stratum[rank[f.name] * 5 // len(ordered)] += 1
        for share in per_stratum:
            assert 80 <= share <= 120, per_stratum

    def test_hot_tail_survives_sampling(self, population):
        # Uniform sampling would likely miss the few hottest functions;
        # the stratified sampler must keep the top stratum represented.
        sample = sample_functions(population, 100, Rng(7), strata=5)
        hottest_cut = sorted(
            (f.mean_rate_rps for f in population), reverse=True
        )[len(population) // 5]
        assert any(f.mean_rate_rps >= hottest_cut for f in sample)

    def test_seed_stability(self, population):
        first = sample_functions(population, 300, Rng(11))
        second = sample_functions(population, 300, Rng(11))
        assert [f.name for f in first] == [f.name for f in second]
        different = sample_functions(population, 300, Rng(12))
        assert [f.name for f in first] != [f.name for f in different]

    def test_sampled_streamed_trace_carries_sample_share(self):
        trace = streamed_trace(
            function_count=10_000,
            duration_seconds=5.0,
            total_rps=1200.0,
            sample_size=100,
        )
        assert trace.function_count == 100
        sampled_rps = sum(f.mean_rate_rps for f in trace.functions)
        assert 0 < sampled_rps < 1200.0

    def test_streamed_generation_memory_bound(self):
        # Once the per-function machinery is set up (generators + RNG
        # streams, O(functions)), draining the whole stream must not
        # grow memory with the invocation count — there is never a
        # materialized arrival list.  An eager list of this stream
        # would allocate several MB; the drain stays under 512 KiB.
        trace = streamed_trace(
            function_count=10_000, duration_seconds=200.0, total_rps=600.0
        )
        stream = trace.iter_invocations()
        next(stream)  # pay the O(functions) setup before measuring
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        count = sum(1 for _ in stream)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count > 50_000
        assert peak - baseline < 512 * 1024, (count, peak - baseline)

    def test_setup_forks_no_duration_stream_for_silent_functions(self, population):
        # Rare functions average at most one invocation per five
        # minutes, so most of them stay silent for two.  Setting up the
        # merge seeded two generators for every function before it
        # pulled the first arrival; the windows seed the second one
        # only for a function that fires and drop a silent one's first
        # at once.
        rare = [
            dataclasses.replace(
                fn, pattern="rare", mean_rate_rps=min(fn.mean_rate_rps, 1.0 / 300.0)
            )
            for fn in population
        ]
        trace = StreamedTrace(rare, 120.0, 42)

        def setup_peak(make_stream):
            tracemalloc.start()
            baseline, _ = tracemalloc.get_traced_memory()
            next(make_stream(trace))
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak - baseline

        lazy = setup_peak(StreamedTrace.iter_invocations)
        eager = setup_peak(merged_invocations)
        assert 0 < lazy < eager / 2, (lazy, eager)


def test_streamed_trace_slots_and_fields():
    trace = StreamedTrace([], 10.0, 3)
    assert trace.duration_seconds == 10.0
    assert trace.function_count == 0
    assert trace.memory_bytes() == []
