"""Unit tests for metrics (percentiles, latency recorders)."""

import pytest

from repro.sim import LatencyRecorder, percentile, relative_variance


def test_percentile_single_sample():
    assert percentile([5.0], 99) == 5.0


def test_percentile_extremes():
    samples = [1.0, 2.0, 3.0, 4.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 4.0


def test_percentile_interpolates():
    samples = [0.0, 10.0]
    assert percentile(samples, 50) == 5.0
    assert percentile(samples, 25) == 2.5


def test_percentile_empty_is_nan():
    # No samples means no order statistics — NaN, not a crash, so an
    # experiment arm with zero completions can still render its table.
    result = percentile([], 50)
    assert result != result


def test_percentile_out_of_range_rejected():
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    # The q-range check still applies with no samples.
    with pytest.raises(ValueError):
        percentile([], 101)


def test_relative_variance_constant_is_zero():
    assert relative_variance([3.0, 3.0, 3.0]) == 0.0


def test_relative_variance_matches_manual():
    # mean 2, variance ((1)^2+(1)^2)/2 = 1, relvar = 1/4 = 25%
    assert relative_variance([1.0, 3.0]) == pytest.approx(25.0)


def test_latency_recorder_summary():
    recorder = LatencyRecorder("test")
    for value in (1.0, 2.0, 3.0, 4.0, 5.0):
        recorder.record(value)
    assert recorder.name == "test"
    assert recorder.count == len(recorder) == 5
    assert recorder.mean == 3.0
    assert recorder.median == 3.0
    assert recorder.minimum == 1.0
    assert recorder.maximum == 5.0
    assert recorder.p99 == pytest.approx(4.96)


def test_latency_recorder_rejects_negative():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.record(-0.1)


def test_latency_recorder_empty_stats_are_nan():
    recorder = LatencyRecorder()
    assert recorder.mean != recorder.mean
    assert recorder.minimum != recorder.minimum
    assert recorder.maximum != recorder.maximum
    assert recorder.percentile(99) != recorder.percentile(99)


def test_latency_recorder_keeps_sorted_under_unordered_input():
    recorder = LatencyRecorder()
    for value in (5.0, 1.0, 3.0):
        recorder.record(value)
    assert recorder.minimum == 1.0
    assert recorder.maximum == 5.0
    assert recorder.median == 3.0
