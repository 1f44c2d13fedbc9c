"""Reference arrival stream for the property test in ``test_stream``.

The heap-merge formulation :class:`~repro.trace.stream.StreamedTrace`
used before it generated a window at a time: one generator per
function, both RNG streams forked up front, merged in time order with
:func:`heapq.merge`.  It left the product when the calendar-bucket
generator became the only one; it stays here so "same tuples, same
windows" is checked live for any population, seed and window length.
"""

import heapq
import math

from repro.sim.distributions import Rng
from repro.trace.azure import _DURATION_MAX, _DURATION_MIN
from repro.trace.stream import _PERIODIC_JITTER


def _arrival_times(fn, duration, arng):
    if fn.pattern != "periodic":  # steady and rare: Poisson at the mean rate
        t = arng._random.expovariate(fn.mean_rate_rps)
        while t < duration:
            yield t
            t += arng._random.expovariate(fn.mean_rate_rps)
        return
    t = arng.uniform(0, fn.period_seconds)
    while t < duration:
        jittered = [t + arng.uniform(0, _PERIODIC_JITTER) for _ in range(fn.burst_size)]
        yield from sorted(when for when in jittered if when < duration)
        t += fn.period_seconds


def _function_stream(index, fn, duration, arng, drng):
    log_median = math.log(fn.median_duration_seconds)
    for t in _arrival_times(fn, duration, arng):
        d = math.exp(log_median + fn.duration_sigma * drng._random.gauss(0.0, 1.0))
        yield (t, index, min(_DURATION_MAX, max(_DURATION_MIN, d)))


def merged_invocations(trace):
    """Iterator over every invocation tuple of ``trace``, in time order."""
    base = Rng(trace.seed)
    duration_base = base.fork(2)
    arrival_base = base.fork(3)
    return heapq.merge(*(
        _function_stream(
            index, fn, trace.duration_seconds,
            arrival_base.fork(index + 1), duration_base.fork(index + 1),
        )
        for index, fn in enumerate(trace.functions)
    ))


def partitioned(invocations, window, duration) -> list:
    """``invocations`` split the way the coordinator's loop split them:
    window ``k`` ends at ``(k + 1) * window`` and the last one is the
    first whose end reaches ``duration``."""
    windows = []
    position = 0
    while True:
        end = (len(windows) + 1) * window
        batch = []
        while position < len(invocations) and invocations[position][0] < end:
            batch.append(invocations[position])
            position += 1
        windows.append(batch)
        if end >= duration:
            return windows
