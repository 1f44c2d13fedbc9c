"""Scenario engine: seeded reproducibility and spec-driven assembly."""

import math

import pytest

from repro.scenario import (
    SpecError,
    assemble_cluster,
    load_spec,
    run_scenario,
    scenario_from_dict,
)


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
