"""Scenario engine: seeded reproducibility and spec-driven assembly."""

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
