"""Streamed trace generation: the invocation stream both platforms replay.

:class:`StreamedTrace` keeps the *function* population materialized
and hands the invocation stream out a window at a time.  Its first
iteration draws every function's arrivals and durations, one function
at a time, into one flat pair of ``array('d')`` columns shared by all
later iterations: arrival times, each function's run ending in an
``inf`` sentinel, and durations aligned with them (16 B per
invocation), plus a ``(start, index)`` head per function that fires.
Each function's generators die before the next one is seeded, and a
function that never fires keeps nothing.  The columns are held for the
trace object's lifetime (10.4 MiB at ``fig10full`` scale, sentinels
included; 12 MiB traced with the heads), so every platform arm that
replays one trace object pays for the draws once.
Each iteration then keeps its own calendar: every function with
arrivals left sits in a bucket keyed by the window of its next one, as
a ``[cursor, index]`` state over the shared columns; producing a window
touches only the functions due in it, emits their arrivals up to the
window end, files each under its next window and sorts the window's
list once.  Keeping two live generators per firing function instead
(2 × 2,520 B) breaks even at about 320 invocations per function; the
traces here average 7 (30× over 120 s) to 67 (100× over 1,200 s).

Every function has its own pair of RNG streams keyed by its position,
so its invocation sequence is independent of the window length and of
how (or whether) the other functions are consumed — the property the
sharded simulator's invariance argument leans on — and two iterations
of the same :class:`StreamedTrace` yield byte-identical streams.  A
function whose first arrival misses the trace never seeds the second.
Each stream is a bare C generator (``_random.Random``, the base of
``random.Random``) seeded with the value ``Rng(seed).fork(3).fork(i +
1)`` (arrivals) or ``.fork(2).fork(i + 1)`` (durations) would carry,
computed by :func:`~repro.sim.distributions.fork_seed`; no ``Rng`` and
none of ``random.Random``'s Python seeding layers are built per
function.

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
from array import array
from _random import Random as _Generator  # random.Random's C base
from itertools import chain
from typing import Iterator

from ..sim.distributions import Rng, fork_seed
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
_TWOPI = 2.0 * math.pi  # random.gauss's constant


def _draw_ahead(fn, duration, arrival_seed, duration_seed, salt, times, durations):
    """Append one function's arrival times (then ``inf``, never due) and
    durations (then an aligned ``inf``) to the shared columns; returns
    whether it fires (a silent function appends nothing).

    ``expovariate``, ``uniform(0, x)`` (``x * random()``) and ``gauss``
    (a Box–Muller pair, odd draws its spare) are written out: a method
    call per draw is measurable at 100× scale.  The generators die with
    this frame.
    """
    exp, log, cos, sin, sqrt = math.exp, math.log, math.cos, math.sin, math.sqrt
    random = _Generator(fork_seed(arrival_seed, salt)).random
    start = len(times)
    if fn.pattern == "periodic":
        period = fn.period_seconds
        t = period * random()
        while t < duration:
            burst = sorted([t + _PERIODIC_JITTER * random() for _ in range(fn.burst_size)])
            times.extend([when for when in burst if when < duration])
            t += period
    else:
        add = times.append
        rate = fn.mean_rate_rps
        t = -log(1.0 - random()) / rate
        while t < duration:
            add(t)
            t += -log(1.0 - random()) / rate
    if len(times) == start:
        return False
    draw = _Generator(fork_seed(duration_seed, salt)).random
    log_median, sigma = log(fn.median_duration_seconds), fn.duration_sigma
    add = durations.append
    for i in range(len(times) - start):
        if i & 1:
            z = spare
        else:
            x2pi = draw() * _TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - draw()))
            z = cos(x2pi) * g2rad
            spare = sin(x2pi) * g2rad
        d = exp(log_median + sigma * z)
        if d < _DURATION_MIN:
            d = _DURATION_MIN
        elif d > _DURATION_MAX:
            d = _DURATION_MAX
        add(d)
    times.append(math.inf)
    add(math.inf)
    return True


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
    the same tuples a list per window.  The first iteration draws the
    columns every iteration reads, at any window length, and they are
    held until the trace goes; ``functions``, ``duration_seconds`` and
    ``seed`` are read-only, so the columns cannot go stale.  Iterating
    twice yields identical streams.
    """

    __slots__ = ("_functions", "_duration_seconds", "_seed", "_columns")

    def __init__(self, functions: list[TraceFunction], duration_seconds: float, seed: int):
        self._functions = tuple(functions)
        self._duration_seconds = float(duration_seconds)
        self._seed = seed
        self._columns = None  # (times, durations, heads), drawn on first use
        if not 0 <= self._duration_seconds < math.inf:
            raise ValueError("duration_seconds must be finite and >= 0")
        _reject_malformed(self._functions)

    @property
    def functions(self) -> tuple[TraceFunction, ...]:
        return self._functions

    @property
    def duration_seconds(self) -> float:
        return self._duration_seconds

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def function_count(self) -> int:
        return len(self._functions)

    def memory_bytes(self) -> list[int]:
        """Per-function memory footprint, indexed like the stream."""
        return [fn.memory_bytes for fn in self._functions]

    def iter_invocations(self) -> Iterator[tuple]:
        """Time-ordered invocation tuples, drawn ahead as 16 B per invocation."""
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

    def _drawn(self):
        """The shared columns ``(times, durations, heads)``, drawn once.

        ``heads`` holds ``(start, index)`` for each function that fires,
        ``times[start]`` its first arrival.  The draws depend only on
        the duration and the seeds, never on a window length.
        """
        if self._columns is None:
            times, durations, heads = array("d"), array("d"), []
            seeds = fork_seed(self._seed, 3), fork_seed(self._seed, 2)  # arrivals, durations
            duration = self._duration_seconds
            for index, fn in enumerate(self._functions):
                start = len(times)
                if _draw_ahead(fn, duration, *seeds, index + 1, times, durations):
                    heads.append((start, index))
            self._columns = times, durations, heads
        return self._columns

    def _windows(self, window):
        duration = self._duration_seconds
        times, durations, heads = self._drawn()
        # Window index -> this iteration's states whose next arrival
        # falls in it, each ``[cursor, index]`` with ``times[cursor]``
        # the next arrival.  Every function starts in window 0 and files
        # itself under its first arrival's window from there, so there
        # is one filing site.
        calendar = {0: list(map(list, heads))}
        k = 0
        while True:
            end = (k + 1) * window
            stop = end if end < duration else duration
            arrivals = []
            add = arrivals.append
            for state in calendar.pop(k, ()):
                cursor, index = state
                t = times[cursor]
                while t < stop:
                    add((t, index, durations[cursor]))
                    cursor += 1
                    t = times[cursor]
                if t >= duration:
                    continue  # exhausted: its state drops out here
                state[0] = cursor
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
