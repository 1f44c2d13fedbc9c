"""Streamed trace generation and the stratified sampler at scale."""

import itertools
import tracemalloc

import pytest

from repro.sim.distributions import Rng
from repro.trace.azure import _DURATION_MAX, _DURATION_MIN, generate_functions
from repro.trace.sampler import sample_functions
from repro.trace.stream import StreamedTrace, streamed_trace


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


def test_streamed_trace_slots_and_fields():
    trace = StreamedTrace([], 10.0, 3)
    assert trace.duration_seconds == 10.0
    assert trace.function_count == 0
    assert trace.memory_bytes() == []
