"""InVitro-style trace sampling.

The paper samples 100 functions from the Azure trace "using the
InVitro sampler" [104], whose key property is preserving the workload's
statistical shape: sampling uniformly at random over functions would
almost surely miss the few very hot functions that carry most of the
load, so InVitro stratifies functions by invocation frequency and
samples proportionally from each stratum.

:func:`sample_functions` reproduces that scheme: functions are bucketed
into frequency quantile strata, and each stratum contributes a share of
the sample proportional to its population.
"""

from __future__ import annotations

import math

from ..sim.distributions import Rng
from .azure import TraceFunction

__all__ = ["sample_functions"]


def sample_functions(
    functions: list[TraceFunction],
    sample_size: int,
    rng: Rng,
    strata: int = 5,
) -> list[TraceFunction]:
    """Stratified sample of ``sample_size`` functions by invocation rate."""
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if sample_size > len(functions):
        raise ValueError(
            f"cannot sample {sample_size} from {len(functions)} functions"
        )
    strata = max(1, min(strata, sample_size))
    ordered = sorted(functions, key=lambda f: f.mean_rate_rps)
    buckets: list[list[TraceFunction]] = []
    bucket_size = math.ceil(len(ordered) / strata)
    for start in range(0, len(ordered), bucket_size):
        buckets.append(ordered[start : start + bucket_size])

    picked: list[TraceFunction] = []
    remaining = sample_size
    for index, bucket in enumerate(buckets):
        remaining_buckets = len(buckets) - index
        share = round(remaining * len(bucket) / sum(len(b) for b in buckets[index:]))
        share = min(share, len(bucket), remaining)
        if index == len(buckets) - 1:
            share = min(remaining, len(bucket))
        if share > 0:
            picked.extend(rng.sample(bucket, share))
            remaining -= share
    # Top up from the full population if rounding left a shortfall.
    if remaining > 0:
        leftovers = [f for f in ordered if f not in picked]
        picked.extend(rng.sample(leftovers, remaining))
    return picked
