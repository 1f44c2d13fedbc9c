"""No generator process runs under ``src/``.

Request paths, the open-loop driver, the baselines and the fault
injector are callback chains on the kernel (docs/simulation.md,
"Kernel semantics").  Each run below refuses every ``Process`` and
every ``AllOf`` / ``AnyOf`` while it drives a small configuration of an
experiment that used to start them: Figs 2, 5, 7 and 8, and a mini
scenario with crash and limp cycles armed.
"""

import pytest

from repro.experiments import run_fig02, run_fig05, run_fig07, run_fig08
from repro.scenario import load_spec, run_scenario
from repro.sim import core


@pytest.fixture(autouse=True)
def refuse_processes(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was constructed")

    monkeypatch.setattr(core.Process, "__init__", refuse)
    monkeypatch.setattr(core._Condition, "__init__", refuse)


def test_refusal_is_armed():
    env = core.Environment()
    with pytest.raises(AssertionError):
        env.process(iter(()))
    with pytest.raises(AssertionError):
        env.all_of([])


def test_fig02_baselines():
    result = run_fig02(hot_ratios=(1.0, 0.97), rate_rps=50.0, duration_seconds=0.5, cores=4)
    assert len(result.rows) == 2


def test_fig05_load_model_and_baselines():
    result = run_fig05(
        systems=("dandelion-kvm", "firecracker-snapshot"), rates=(25, 100), duration_seconds=0.2
    )
    assert {row["system"] for row in result.rows} == {"dandelion-kvm", "firecracker-snapshot"}


def test_fig07_dandelion_and_every_dhybrid_mode():
    result = run_fig07(rates=(200,), duration_seconds=0.05)
    assert {row["system"] for row in result.rows} == {
        "dandelion", "dhybrid-tpc1-pinned", "dhybrid-tpc3", "dhybrid-tpc5",
    }


def test_fig08_both_apps_on_every_system():
    schedule = {"logproc": [(0.2, 50.0)], "compress": [(0.2, 100.0)]}
    result = run_fig08(schedule=schedule, cores=4)
    assert len(result.rows) == 6
    assert all(row["requests"] > 0 for row in result.rows)


def test_faulted_mini_scenario():
    spec = load_spec("mini").with_overrides({
        "trace.duration_seconds": 0.5,
        "faults.mttf_seconds": 0.1,
        "faults.mttr_seconds": 0.05,
        "faults.limp_mttf_seconds": 0.1,
        "faults.limp_duration_seconds": 0.05,
        "faults.limp_severity": 4.0,
    })
    run = run_scenario(spec)
    assert run.injector.crashes_injected > 0
    assert run.injector.limps_injected > 0
    assert run.kpis.completed > 0
