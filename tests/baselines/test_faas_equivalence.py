"""The callback FaaS request chain and open-loop driver against their
generator oracles (``generator_oracle.py``).

Three runs over the same draw: the oracle platform under the oracle
driver, the product platform under the oracle driver (every heap entry
pushed at the same point, so ``events_scheduled`` is equal too), and the
product platform under the product driver, whose only dropped entries
are the old end-of-run hops (``all_of``, driver end, ``any_of``).  Every
``RequestRecord``, the cold/hot counts and the ``LoadResult`` must be
equal.  The driver's one intended difference, a completion at the exact
instant of the drain cutoff (it now counts), is left to
``tests/workloads/test_loadgen.py``; the property assumes it away.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    FIRECRACKER,
    FIRECRACKER_SNAPSHOT,
    GVISOR,
    WASMTIME,
    FaasPlatform,
    compute_phase,
    io_phase,
)
from repro.sim import Environment, Rng
from repro.workloads import run_arrivals

from .generator_oracle import GeneratorFaasPlatform, generator_run_arrivals

CHAIN = [compute_phase(1e-3), io_phase(2e-3), compute_phase(5e-4)]

_seconds = st.floats(0.0, 5e-3, allow_nan=False, allow_infinity=False)
_phase = st.builds(lambda kind, s: kind(s), st.sampled_from([compute_phase, io_phase]), _seconds)


def _run(platform_class, driver, spec, cores, hot_ratio, seed, functions, arrivals, **load):
    env = Environment()
    platform = platform_class(env, spec, cores, hot_ratio, Rng(seed))
    names = [platform.register_function(f"f{i}", phases).name for i, phases in enumerate(functions)]
    cycle = itertools.cycle(names)
    result = driver(env, lambda: platform.request(next(cycle)), arrivals, **load)
    return {
        "records": platform.records,
        "cold_hot": (platform.cold_requests, platform.hot_requests),
        "load": (
            result.offered_rps, result.duration_seconds, result.completed, result.failed,
            result.makespan_seconds, result.latencies._sorted, result.latencies._sum,
        ),
        "platform_latencies": platform.latencies._sorted,
    }, env.events_scheduled


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from([FIRECRACKER, FIRECRACKER_SNAPSHOT, GVISOR, WASMTIME]),
    cores=st.integers(1, 4),
    hot_ratio=st.sampled_from([0.0, 0.5, 0.97, 1.0]),
    seed=st.integers(0, 3),
    functions=st.lists(st.lists(_phase, max_size=4), min_size=1, max_size=2),
    arrivals=st.lists(st.floats(0.0, 0.02, allow_nan=False), max_size=30),
    duration=st.sampled_from([0.0, 0.005, 0.02]),
    drain=st.sampled_from([0.0, 0.01]),
    warmup_until=st.sampled_from([0.0, 0.005]),
)
def test_callback_chain_matches_the_generator_oracle(
    spec, cores, hot_ratio, seed, functions, arrivals, duration, drain, warmup_until
):
    common = (spec, cores, hot_ratio, seed, functions, arrivals)
    load = dict(duration_seconds=duration, drain_seconds=drain, warmup_until=warmup_until)
    oracle, oracle_events = _run(GeneratorFaasPlatform, generator_run_arrivals, *common, **load)
    chain, chain_events = _run(FaasPlatform, generator_run_arrivals, *common, **load)
    product, _ = _run(FaasPlatform, run_arrivals, *common, **load)
    if duration:
        cutoff = duration + drain
        assume(all(t < cutoff for t in arrivals))
        assume(all(r.finished_at != cutoff for r in product["records"]))
    assert chain == oracle
    assert chain_events == oracle_events
    assert product == oracle


def _one_request(platform_class, hot_ratio):
    env = Environment()
    platform = platform_class(env, FIRECRACKER_SNAPSHOT, 2, hot_ratio, Rng(0))
    platform.register_function("f", CHAIN)
    record = env.run(until=platform.request("f"))
    return env.events_scheduled, record


def test_one_cold_request_event_pin():
    # Initialize hop, cold start, three phases, the CPU's timers and
    # the process-end hop: the generator's entries, one for one.
    events, record = _one_request(FaasPlatform, hot_ratio=0.0)
    assert record.cold
    assert (events, record) == _one_request(GeneratorFaasPlatform, hot_ratio=0.0)
    assert events == 9


def test_one_hot_request_event_pin():
    events, record = _one_request(FaasPlatform, hot_ratio=1.0)
    assert not record.cold
    assert (events, record) == _one_request(GeneratorFaasPlatform, hot_ratio=1.0)
    assert events == 9
