"""CLI surface of the scenario harness (`python -m repro scenario ...`)."""

import json

import pytest

from repro.__main__ import main
from repro.scenario import KpiRecord


def test_scenario_list_names_bundled_specs(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("mini", "sec61", "sec62", "sec63", "fig10_full"):
        assert name in out


def test_scenario_run_emits_kpi_record(tmp_path, capsys):
    output = tmp_path / "kpis.json"
    assert main([
        "scenario", "run", "mini",
        "--set", "trace.duration_seconds=0.25",
        "--output", str(output),
    ]) == 0
    stdout_record = KpiRecord.from_json(
        capsys.readouterr().out.split("\n", 1)[1]  # first line: written-to note
    )
    file_record = KpiRecord.from_json(output.read_text())
    assert stdout_record == file_record
    assert file_record.scenario == "mini"
    assert file_record.offered > 0


def test_scenario_run_rejects_bad_spec_and_override(capsys):
    assert main(["scenario", "run", "no_such_spec"]) == 2
    assert "no bundled scenario" in capsys.readouterr().err
    assert main(["scenario", "run", "mini", "--set", "fleet.wrokers=8"]) == 2
    assert "unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scenario", "run", "fig10_full", "--engine", "lean"],
    ["run", "fig10full", "--engine", "lean"],
])
def test_engine_flag_is_gone(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--engine" in capsys.readouterr().err


def test_scenario_sweep_writes_matrix(tmp_path, capsys):
    output = tmp_path / "matrix.json"
    assert main([
        "scenario", "sweep", "mini",
        "--set", "trace.duration_seconds=0.25",
        "--axis", "policy=least_loaded,random",
        "--output", str(output),
    ]) == 0
    out = capsys.readouterr().out
    assert "2 arms" in out
    matrix = json.loads(output.read_text())
    assert matrix["schema"] == "repro-kpi-matrix/v1"
    assert len(matrix["records"]) == 2


def test_scenario_diff_exit_codes(tmp_path, capsys):
    base = tmp_path / "a.json"
    main(["scenario", "run", "mini", "--set", "trace.duration_seconds=0.25",
          "--output", str(base)])
    other = tmp_path / "b.json"
    main(["scenario", "run", "mini", "--set", "trace.duration_seconds=0.25",
          "--set", "trace.rps=400", "--output", str(other)])
    capsys.readouterr()
    assert main(["scenario", "diff", str(base), str(base)]) == 0
    assert "diff: OK" in capsys.readouterr().out
    assert main(["scenario", "diff", str(base), str(other)]) == 1
    assert "diff: FAILED" in capsys.readouterr().out
    # A wide-open tolerance band turns the same comparison green.
    assert main([
        "scenario", "diff", str(base), str(other),
        "--tolerance", "offered=1.0", "--tolerance", "completed=1.0",
        "--tolerance", "goodput_rps=1.0", "--tolerance", "p50_ms=1.0",
        "--tolerance", "p95_ms=1.0", "--tolerance", "p99_ms=1.0",
        "--tolerance", "utilization=1.0", "--tolerance", "imbalance=1.0",
        "--tolerance", "retries=1.0",
    ]) == 0


def test_experiment_list_uses_module_docstrings(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fault tolerance" in out       # sec61 module docstring
    assert "gray failures" in out         # sec63 module docstring
    assert "sharded replay" in out        # fig10_full module docstring
