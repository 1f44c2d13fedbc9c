"""Tests for committed-memory accounting, and for the test-side series
recorder the differential tests compare (``tests/memory_series.py``)."""

from repro.data import PAGE_SIZE, DataItem, DataSet, MemoryContext
from repro.dispatcher import MemoryTracker
from repro.sim import Environment

from ..memory_series import RecordingMemoryTracker

# One small set: storing it commits the page its end falls in.
SETS = [DataSet("s", [DataItem("i", b"x")])]


def test_tracker_starts_at_zero():
    tracker = MemoryTracker(Environment())
    assert tracker.current_bytes == 0
    assert tracker.peak_bytes == 0
    assert tracker.live_context_count == 0


def test_observe_counts_committed_pages():
    env = Environment()
    tracker = MemoryTracker(env)
    context = MemoryContext(10 * PAGE_SIZE)
    context.store_sets(SETS)
    tracker.observe(context)
    assert tracker.current_bytes == PAGE_SIZE
    assert tracker.live_context_count == 1


def test_observe_updates_incrementally():
    env = Environment()
    tracker = MemoryTracker(env)
    context = MemoryContext(10 * PAGE_SIZE)
    context.store_sets(SETS)
    tracker.observe(context)
    context.store_sets(SETS, offset=3 * PAGE_SIZE)
    tracker.observe(context)
    assert tracker.current_bytes == 4 * PAGE_SIZE


def test_observe_same_size_no_new_sample():
    env = Environment()
    tracker = RecordingMemoryTracker(env)
    context = MemoryContext(PAGE_SIZE)
    context.store_sets(SETS)
    tracker.observe(context)
    samples_before = len(tracker.times)
    tracker.observe(context)
    assert len(tracker.times) == samples_before
    assert tracker.current_bytes == tracker.peak_bytes == PAGE_SIZE


def test_release_drops_contribution():
    env = Environment()
    tracker = MemoryTracker(env)
    context = MemoryContext(PAGE_SIZE)
    context.store_sets(SETS)
    tracker.observe(context)
    tracker.release(context)
    assert tracker.current_bytes == 0
    assert tracker.live_context_count == 0
    assert tracker.peak_bytes == PAGE_SIZE


def test_release_untracked_is_noop():
    env = Environment()
    tracker = MemoryTracker(env)
    tracker.release(MemoryContext(PAGE_SIZE))
    assert tracker.current_bytes == 0


def test_average_committed_time_weighted():
    env = Environment()
    tracker = RecordingMemoryTracker(env)
    context = MemoryContext(PAGE_SIZE)

    def scenario():
        yield env.timeout(10)   # 10s at 0 bytes
        context.store_sets(SETS)
        tracker.observe(context)
        yield env.timeout(10)   # 10s at PAGE_SIZE
        tracker.release(context)
        yield env.timeout(0)

    env.process(scenario())
    env.run()
    assert (tracker.times, tracker.values) == ([0, 10, 20], [0, PAGE_SIZE, 0])
    steps = zip(tracker.times, tracker.times[1:], tracker.values)
    average = sum(value * (end - start) for start, end, value in steps) / 20
    assert average == PAGE_SIZE / 2


def test_multiple_contexts_sum():
    env = Environment()
    tracker = MemoryTracker(env)
    contexts = [MemoryContext(PAGE_SIZE) for _ in range(3)]
    for context in contexts:
        context.store_sets(SETS)
        tracker.observe(context)
    assert tracker.current_bytes == 3 * PAGE_SIZE
    assert tracker.peak_bytes == 3 * PAGE_SIZE
