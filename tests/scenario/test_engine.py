"""Scenario engine: seeded reproducibility and spec-driven assembly."""

import gc
import hashlib
import math
from heapq import heappush
from itertools import accumulate, cycle, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.manager import ClusterManager
from repro.scenario import (
    SpecError,
    assemble_cluster,
    build_requests,
    load_spec,
    run_scenario,
    scenario_from_dict,
)
from repro.scenario import engine as scenario_engine
from repro.sim import core
from repro.sim.distributions import Rng
from repro.trace import stream
from repro.trace.stream import _Generator


def _mini_spec(**trace_overrides):
    trace = {"rps": 80.0, "duration_seconds": 0.5, **trace_overrides}
    return scenario_from_dict({
        "name": "t", "seed": 3, "trace": trace,
        "workload": {"compute_seconds": 0.002},
        "fleet": {"workers": 3, "cores": 2},
    })


def test_same_spec_same_seed_identical_kpi_record():
    spec = load_spec("mini")
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert first.kpis.to_json() == second.kpis.to_json()
    assert first.kpis.spec_digest == spec.digest()


def test_different_seed_different_arrivals():
    base = _mini_spec()
    other = base.with_overrides({"seed": 4})
    assert run_scenario(base).kpis.offered != run_scenario(other).kpis.offered


def test_injector_armed_iff_mttf_positive():
    _cluster, injector = assemble_cluster(_mini_spec())
    assert injector is None
    armed_spec = _mini_spec().with_overrides({
        "faults.mttf_seconds": 1.0, "faults.mttr_seconds": 0.1,
    })
    _cluster, injector = assemble_cluster(armed_spec)
    assert injector is not None


def test_unknown_policy_name_fails_before_assembly():
    spec = _mini_spec().with_overrides({"sched.routing": "does_not_exist"})
    with pytest.raises(SpecError, match="unknown routing policy"):
        run_scenario(spec)


def test_multi_app_run_counts_every_request():
    spec = _mini_spec(apps=4, zipf_skew=1.1)
    run = run_scenario(spec)
    assert run.kpis.offered > 0
    assert run.kpis.completed == run.kpis.offered  # no faults configured
    assert run.kpis.success_pct == 100.0


def test_streamed_spec_runs_through_sharded_replay():
    spec = load_spec("fig10_full").with_overrides({
        "trace.scale": 0.5, "trace.duration_seconds": 30.0,
        "fleet.workers": 4, "fleet.cores": 8,
    })
    run = run_scenario(spec, shards=1, executor="serial")
    assert run.report is not None
    assert run.kpis.offered == run.report.routed
    assert run.meta["function_count"] == 50
    # Streamed KPIs don't model utilization/imbalance.
    assert math.isnan(run.kpis.utilization)
    assert "committed_mean_mib" in run.kpis.extras


def test_engine_argument_is_gone():
    with pytest.raises(TypeError):
        run_scenario(load_spec("fig10_full"), engine="lean")


def test_process_executor_is_gone():
    # `executor` survives only as the benchmark-pinned "serial" literal.
    with pytest.raises(SpecError, match="only 'serial'"):
        run_scenario(load_spec("fig10_full"), executor="process")


# -- the request stream ---------------------------------------------------------


def _scan_requests(spec):
    """The request stream as a running sum and a linear scan over the
    Zipf edges build it."""
    arrival_rng = Rng(spec.trace_seed())
    app_rng = Rng(spec.trace_seed()).fork(1)
    cumulative = []
    total = 0.0
    for weight in arrival_rng.zipf_weights(spec.trace.apps, spec.trace.zipf_skew):
        total += weight
        cumulative.append(total)
    requests = []
    for arrive_at in arrival_rng.poisson_arrivals(
        spec.offered_rps(), spec.trace.duration_seconds
    ):
        draw = app_rng.uniform()
        requests.append((arrive_at, _scan(cumulative, draw)))
    return requests


def _scan(cumulative, draw):
    return next(index for index, edge in enumerate(cumulative) if draw <= edge)


@settings(max_examples=60, deadline=None)
@given(
    apps=st.integers(2, 40),
    skew=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**16),
)
def test_property_build_requests_matches_linear_scan(apps, skew, seed):
    spec = _mini_spec(apps=apps, zipf_skew=skew).with_overrides({"seed": seed})
    assert build_requests(spec) == _scan_requests(spec)


class _ScriptedDraws:
    """Stands in for the forked app stream: ``uniform`` cycles through
    the given draws."""

    def __init__(self, draws):
        self._draws = cycle(draws)

    def uniform(self):
        return next(self._draws)


@settings(max_examples=100, deadline=None)
@given(apps=st.integers(2, 40), skew=st.floats(0.0, 3.0), data=st.data())
def test_property_app_pick_matches_scan_on_and_beside_edges(apps, skew, data):
    # ~200 arrivals: every scripted draw is used at least once.
    spec = _mini_spec(apps=apps, zipf_skew=skew, rps=400.0)
    cumulative = list(accumulate(Rng(0).zipf_weights(apps, skew)))
    draws = [data.draw(st.floats(0.0, cumulative[-1]))]
    for edge in cumulative:
        draws += [edge, math.nextafter(edge, -math.inf)]
        if edge < cumulative[-1]:
            draws.append(math.nextafter(edge, math.inf))

    class ScriptedRng(Rng):
        def fork(self, index):
            return _ScriptedDraws(draws)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_engine, "Rng", ScriptedRng)
        requests = build_requests(spec)
    expected = [_scan(cumulative, draw) for draw in islice(cycle(draws), len(requests))]
    assert len(requests) >= len(draws)
    assert [app for _arrive_at, app in requests] == expected


def test_sec62_request_stream_is_pinned():
    requests = build_requests(load_spec("sec62"))
    assert len(requests) == 2371
    assert hashlib.sha256(repr(requests).encode()).hexdigest() == (
        "96f6f6f2c8fc56aba03c88e4e5870c0d74a85a663dcda4215e4b1cfbbee9de82"
    )


def test_heap_high_water_follows_work_in_flight(monkeypatch):
    # The driver keeps only the next arrival on the heap, so the heap
    # holds the started requests' entries plus the fleet's few timers,
    # however long the trace.  Holding every arrival from t = 0 would
    # put the whole offered count (over 200 here) on the heap.
    in_flight = [0]
    excess = [0]

    def push(queue, entry):
        heappush(queue, entry)
        excess[0] = max(excess[0], len(queue) - in_flight[0])

    start = ClusterManager.start

    def counted_start(self, name, inputs, on_done):
        in_flight[0] += 1

        def done(result):
            in_flight[0] -= 1
            on_done(result)

        start(self, name, inputs, done)

    monkeypatch.setattr(core, "heappush", push)
    monkeypatch.setattr(ClusterManager, "start", counted_start)
    run = run_scenario(load_spec("sec62").with_overrides({"trace.duration_seconds": 0.3}))
    assert run.kpis.offered > 200
    assert in_flight[0] == 0
    assert excess[0] <= 24


# -- the shared streamed trace --------------------------------------------------


@pytest.fixture
def seeded(monkeypatch):
    """The seeds of every per-function generator the stream builds."""
    seeds = []

    def counted(seed):
        seeds.append(seed)
        return _Generator(seed)

    monkeypatch.setattr(stream, "_Generator", counted)
    return seeds


def _trace_replay_spec(scale=30.0):
    # 30x the Fig 10 sample over 120 s: 3,000 arrival generators plus
    # 1,877 duration generators for the functions that fire.
    return load_spec("fig10_full").with_overrides(
        {"trace.scale": scale, "trace.duration_seconds": 120.0}
    )


def _arms(spec, platforms=("dandelion", "faas")):
    return [
        run_scenario(spec.with_overrides({"fleet.platform": platform})).kpis.to_json()
        for platform in platforms
    ]


def test_platform_arms_of_one_spec_draw_the_stream_once(seeded):
    spec = _trace_replay_spec()
    shared = _arms(spec)
    assert len(seeded) == 4877
    # A fleet or routing override keeps the trace section too.
    run_scenario(spec.with_overrides({"fleet.workers": 3, "sched.routing": "round_robin"}))
    assert len(seeded) == 4877
    # The shared draw replays what a fresh draw per arm replays.
    fresh = [_arms(_trace_replay_spec(), (platform,))[0] for platform in ("dandelion", "faas")]
    assert shared == fresh
    assert len(seeded) == 3 * 4877


def test_separately_loaded_equal_specs_draw_their_own_streams(seeded):
    first, second = _trace_replay_spec(), _trace_replay_spec()
    assert first == second and first.trace is not second.trace
    assert _arms(first, ("dandelion",)) == _arms(second, ("dandelion",))
    assert len(seeded) == 9754
    assert seeded[:4877] == seeded[4877:]


@pytest.mark.parametrize("override", [{"trace.seed_offset": 1}, {"seed": 43}])
def test_a_new_trace_seed_draws_a_different_stream(seeded, override):
    spec = _trace_replay_spec(scale=3.0)
    other = spec.with_overrides(override)
    assert other.trace_seed() != spec.trace_seed()
    base_kpis = _arms(spec, ("dandelion",))
    drawn = len(seeded)
    other_kpis = _arms(other, ("dandelion",))
    assert seeded[drawn:] and seeded[drawn:drawn + 100] != seeded[:100]
    assert other_kpis != base_kpis


def test_the_shared_trace_goes_with_its_spec():
    spec = _trace_replay_spec(scale=1.0)
    _arms(spec, ("dandelion",))
    assert scenario_engine._shared_trace is not None
    del spec
    gc.collect()
    assert scenario_engine._shared_trace is None
