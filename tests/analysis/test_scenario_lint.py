"""SCN pass: static validation of scenario spec files."""

from repro.analysis.runner import collect_diagnostics
from repro.analysis.scenario_lint import (
    iter_bundled_specs,
    lint_scenario_path,
    lint_scenario_text,
)

_VALID = """
seed = 1

[trace]
rps = 50.0

[workload]
compute_seconds = 0.004

[faults]
deadline_seconds = 0.25
"""


def _codes(diagnostics):
    return sorted(d.code for d in diagnostics)


def test_valid_spec_is_clean():
    assert lint_scenario_text(_VALID, "spec.toml") == []


def test_bundled_specs_are_clean():
    for reported, text in iter_bundled_specs():
        assert lint_scenario_text(text, reported) == [], reported


def test_scn001_parse_error():
    diagnostics = lint_scenario_text("[trace\nrps = ", "bad.toml")
    assert _codes(diagnostics) == ["SCN001"]
    assert diagnostics[0].severity == "error"


def test_scn001_validation_error():
    diagnostics = lint_scenario_text(
        "seed = 1\n\n[trace]\nrps = 1.0\nrps_per_worker = 1.0\n", "bad.toml"
    )
    assert _codes(diagnostics) == ["SCN001"]
    assert "exactly one of rps" in diagnostics[0].message


def test_scn002_to_scn005_unknown_names():
    text = (
        "seed = 1\n\n[trace]\nrps = 1.0\n\n"
        "[fleet]\nbackend = \"qemu\"\nmachine = \"sparc\"\n\n"
        "[sched]\nrouting = \"fastest\"\ncores = \"magic\"\n"
        "autoscaler = \"hpa\"\n"
    )
    diagnostics = lint_scenario_text(text, "bad.toml")
    assert _codes(diagnostics) == [
        "SCN002", "SCN003", "SCN004", "SCN005", "SCN005"]


def test_scn006_missing_seed_is_a_warning():
    diagnostics = lint_scenario_text("[trace]\nrps = 1.0\n", "spec.toml")
    assert _codes(diagnostics) == ["SCN006"]
    assert diagnostics[0].severity == "warning"


def test_scn007_infeasible_deadline():
    text = (
        "seed = 1\n\n[trace]\nrps = 1.0\n\n"
        "[workload]\ncompute_seconds = 0.010\n\n"
        "[faults]\ndeadline_seconds = 0.001\n"
    )
    diagnostics = lint_scenario_text(text, "spec.toml")
    assert _codes(diagnostics) == ["SCN007"]
    assert "critical path" in diagnostics[0].message
    # A deadline above the critical path is feasible.
    assert lint_scenario_text(text.replace("0.001", "0.05"), "spec.toml") == []


def test_runner_wires_the_scenarios_pass(tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text("[sched]\nrouting = \"fastest\"\n[trace]\nrps = 1.0\n")
    diagnostics = collect_diagnostics({"scenarios"}, paths=[str(bad)])
    codes = _codes(diagnostics)
    assert "SCN002" in codes and "SCN006" in codes
    # Bundled specs rode along and are clean: every finding targets ours.
    assert all(d.file == str(bad) for d in diagnostics)


def test_lint_scenario_path_reads_files(tmp_path):
    spec = tmp_path / "ok.toml"
    spec.write_text(_VALID)
    assert lint_scenario_path(str(spec)) == []
