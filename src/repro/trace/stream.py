"""Streamed trace generation: the invocation stream both platforms replay.

:class:`StreamedTrace` keeps the *function* population materialized
(O(functions), small) and generates the invocation stream a window at
a time.  Each function that still has arrivals sits in a calendar
bucket keyed by the window of its next one; producing a window touches
only the functions due in it, draws their arrivals up to the window
end, files each under its next window and sorts the window's list once.
Peak memory is O(functions + one window) — there is never a full
arrival list, so the paper's 100-function sample and a 100× population
(over a million invocations) go through the same code.

Every function forks its own pair of RNG streams keyed by its position
and draws from them in its own arrival order, whatever the window
length.  Each function's invocation sequence is therefore independent
of how (or whether) the other functions are consumed — the property the
sharded simulator's invariance argument leans on — and two iterations
of the same :class:`StreamedTrace` yield byte-identical streams.  A
function whose first arrival misses the trace never forks the second.

Arrival patterns: ``steady`` and ``rare`` functions are Poisson at
their mean rate; ``periodic`` ones fire a burst every period from a
random phase, each invocation jittered after the timer tick.
Invocations are plain ``(time, function_index, duration_seconds)``
tuples: at a million-plus arrivals the allocation difference to a
dataclass is measurable, and the replay only ever needs those three
fields.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator

from ..sim.distributions import Rng
from .azure import (
    TraceFunction,
    _DURATION_MAX,
    _DURATION_MIN,
    generate_functions,
)
from .sampler import sample_functions

__all__ = ["StreamedTrace", "streamed_trace"]

# Periodic bursts jitter each invocation up to this many seconds after
# the timer tick; StreamedTrace rejects shorter periods (every one in
# generate_functions is >= 30s), so bursts of consecutive periods never
# overlap and sorting within one period keeps the stream monotone.
_PERIODIC_JITTER = 10.0


def _burst_times(fn, duration, arng):
    """A periodic function's arrival times, then ``inf`` (never due)."""
    uniform = arng.uniform
    t = uniform(0, fn.period_seconds)
    while t < duration:
        batch = []
        for _ in range(fn.burst_size):
            batch.append(t + uniform(0, _PERIODIC_JITTER))
        batch.sort()
        for when in batch:
            if when < duration:
                yield when
        t += fn.period_seconds
    yield math.inf


def _reject_malformed(functions) -> None:
    """Raise for a function whose stream would hang or come out unsorted."""
    for fn in functions:
        periodic = fn.pattern == "periodic"
        if fn.pattern not in ("steady", "periodic", "rare"):
            problem = f"unknown pattern {fn.pattern!r}"
        elif not 0 < fn.mean_rate_rps < math.inf:
            problem = "mean_rate_rps must be positive and finite"
        elif periodic and not fn.period_seconds >= _PERIODIC_JITTER:
            problem = f"period_seconds must be >= the {_PERIODIC_JITTER:g}s burst jitter"
        elif periodic and fn.burst_size < 1:
            problem = "burst_size must be >= 1"
        elif not fn.median_duration_seconds > 0:
            problem = "median_duration_seconds must be positive"
        elif not fn.duration_sigma >= 0:
            problem = "duration_sigma must be >= 0"
        else:
            continue
        raise ValueError(f"trace function {fn.name!r}: {problem}")


class StreamedTrace:
    """A replayable trace whose invocation stream is generated lazily.

    ``functions`` is the full (possibly sampled) population;
    :meth:`iter_invocations` yields time-ordered
    ``(time, function_index, duration_seconds)`` tuples where
    ``function_index`` indexes into ``functions``, :meth:`iter_windows`
    the same tuples a list per window.  Iterating twice yields
    identical streams.
    """

    __slots__ = ("functions", "duration_seconds", "seed")

    def __init__(self, functions: list[TraceFunction], duration_seconds: float, seed: int):
        self.functions = list(functions)
        self.duration_seconds = float(duration_seconds)
        self.seed = seed
        if not self.duration_seconds >= 0:
            raise ValueError("duration_seconds must be >= 0")
        _reject_malformed(self.functions)

    @property
    def function_count(self) -> int:
        return len(self.functions)

    def memory_bytes(self) -> list[int]:
        """Per-function memory footprint, indexed like the stream."""
        return [fn.memory_bytes for fn in self.functions]

    def iter_invocations(self) -> Iterator[tuple]:
        """Time-ordered invocation tuples; O(functions) peak memory."""
        # Any window length flattens to the same stream; a short one
        # keeps few invocations alive at a time.
        return chain.from_iterable(self.iter_windows(0.125))

    def iter_windows(self, window_seconds: float) -> Iterator[list]:
        """One time-ordered list of invocation tuples per window.

        Window ``k`` ends at ``(k + 1) * window_seconds``, the sharded
        coordinator's own expression; the last one is the first whose
        end reaches the trace duration.
        """
        if not window_seconds > 0:
            raise ValueError("window_seconds must be positive")
        return self._windows(window_seconds)

    def _windows(self, window):
        duration = self.duration_seconds
        base = Rng(self.seed)
        duration_base = base.fork(2)
        arrival_base = base.fork(3)
        # Per-function state, a list the calendar carries from window to
        # window: [next arrival, index, step, rate, gauss, log_median,
        # sigma].  Poisson (steady and rare) arrivals advance by
        # ``step(rate)``, periodic ones (rate None) to ``step()``.
        # `step` and `gauss` are the underlying generators' bound
        # methods (an Rng wrapper call per invocation is measurable at
        # 100× scale): ``expovariate(rate)`` is ``Rng.exponential(1 /
        # rate)``'s draw, and ``exp(mu + sigma * gauss())`` a lognormal
        # draw through the Box–Muller path, which amortizes one
        # transcendental pair over two draws where ``lognormvariate``
        # pays a rejection loop per draw.
        due = []
        for index, fn in enumerate(self.functions):
            arng = arrival_base.fork(index + 1)
            if fn.pattern == "periodic":
                step, rate = _burst_times(fn, duration, arng).__next__, None
                t = step()
            else:
                step, rate = arng._random.expovariate, fn.mean_rate_rps
                t = step(rate)
            if t < duration:
                gauss = duration_base.fork(index + 1)._random.gauss
                log_median = math.log(fn.median_duration_seconds)
                due.append([t, index, step, rate, gauss, log_median, fn.duration_sigma])
        # Window index -> states whose next arrival falls in it.  Every
        # function starts in window 0 and files itself under its first
        # arrival's window from there, so there is one filing site.
        calendar = {0: due}
        exp = math.exp
        k = 0
        while True:
            end = (k + 1) * window
            stop = end if end < duration else duration
            arrivals = []
            add = arrivals.append
            for state in calendar.pop(k, ()):
                t, index, step, rate, gauss, log_median, sigma = state
                while t < stop:
                    d = exp(log_median + sigma * gauss(0.0, 1.0))
                    if d < _DURATION_MIN:
                        d = _DURATION_MIN
                    elif d > _DURATION_MAX:
                        d = _DURATION_MAX
                    add((t, index, d))
                    if rate is None:
                        t = step()
                    else:
                        t += step(rate)
                if t >= duration:
                    continue  # exhausted: its RNG streams go with the state
                state[0] = t
                # The coordinator's expression, not the quotient,
                # decides which side of a boundary an arrival is on.
                bucket = int(t / window)
                if t >= (bucket + 1) * window:
                    bucket += 1
                elif t < bucket * window:
                    bucket -= 1
                calendar.setdefault(bucket, []).append(state)
            arrivals.sort()
            yield arrivals
            if end >= duration:
                return
            k += 1


def streamed_trace(
    function_count: int = 10_000,
    duration_seconds: float = 1200.0,
    total_rps: float = 1200.0,
    seed: int = 42,
    sample_size: int | None = None,
    strata: int = 5,
) -> StreamedTrace:
    """Build a streamed trace population (defaults: 100× the Fig 10 sample).

    ``sample_size`` optionally restricts the generated population with
    the InVitro-style stratified sampler — the sampled subset then
    carries only its own share of ``total_rps``.
    """
    rng = Rng(seed)
    functions = generate_functions(function_count, total_rps, rng.fork(1))
    if sample_size is not None and sample_size < len(functions):
        functions = sample_functions(functions, sample_size, rng.fork(4), strata=strata)
    return StreamedTrace(functions, duration_seconds, seed)
