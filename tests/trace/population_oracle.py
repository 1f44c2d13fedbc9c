"""Reference population for ``test_population_equivalence``.

:func:`generate_functions` as it was before its draws were written out:
every number comes from an :class:`~repro.sim.distributions.Rng` helper
(``uniform``, ``choice``, ``lognormal``), that is from the standard
library's ``random.Random`` methods.  It stays here so "same functions,
same generator state afterwards" is checked live against
:func:`repro.trace.azure.generate_functions` for any count, total rate
and seed.
"""

import math

from repro.trace.azure import (
    _DURATION_MEDIAN_SECONDS,
    _DURATION_MIN,
    _DURATION_SIGMA,
    _MEMORY_MAX,
    _MEMORY_MEDIAN,
    _MEMORY_MIN,
    _MEMORY_SIGMA,
    _PATTERN_PERIODIC,
    _PATTERN_STEADY,
    TraceFunction,
)


def generate_functions(count, total_rps, rng):
    """The population the standard library's methods draw."""
    classes = [
        (0.02, 0.5, 2.0),
        (0.08, 0.05, 0.5),
        (0.25, 0.005, 0.05),
        (1.00, 0.0005, 0.005),
    ]
    raw = []
    for _ in range(count):
        draw = rng.uniform()
        for fraction, low, high in classes:
            if draw < fraction:
                raw.append(math.exp(rng.uniform(math.log(low), math.log(high))))
                break
    scale = total_rps / sum(raw)
    weights = [rate * scale / total_rps for rate in raw]
    functions = []
    for index in range(count):
        rate = total_rps * weights[index]
        draw = rng.uniform()
        if draw < _PATTERN_STEADY:
            pattern, period, burst = "steady", 0.0, 1
        elif draw < _PATTERN_STEADY + _PATTERN_PERIODIC:
            pattern = "periodic"
            period = rng.choice([30.0, 60.0, 120.0, 300.0])
            burst = max(1, min(4, round(rate * period)))
        else:
            pattern, period, burst = "rare", 0.0, 1
            rate = min(rate, 1.0 / 300.0)
        median = rng.lognormal(_DURATION_MEDIAN_SECONDS, _DURATION_SIGMA)
        memory = rng.lognormal(_MEMORY_MEDIAN, _MEMORY_SIGMA)
        functions.append(
            TraceFunction(
                name=f"fn{index:04d}",
                median_duration_seconds=min(3.0, max(_DURATION_MIN, median)),
                duration_sigma=0.4,
                memory_bytes=int(min(_MEMORY_MAX, max(_MEMORY_MIN, memory))),
                pattern=pattern,
                mean_rate_rps=rate,
                period_seconds=period,
                burst_size=burst,
            )
        )
    return functions
