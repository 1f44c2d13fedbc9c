"""Tests for the `python -m repro` command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_table1(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1 (morello)" in out
    assert "Table 1 (linux)" in out
    assert "kvm" in out


def test_run_sec8(capsys):
    assert main(["run", "sec8"]) == 0
    out = capsys.readouterr().out
    assert "TCB" in out
    assert "all enforcement checks passed" in out


def test_run_sec77(capsys):
    assert main(["run", "sec77"]) == 0
    out = capsys.readouterr().out
    assert "llm_request" in out


def test_run_multiple(capsys):
    assert main(["run", "table1", "sec8"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "TCB" in out


def test_unknown_experiment(capsys):
    assert main(["run", "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiments" in err


def test_fig9_scale_factor_flag(capsys):
    assert main(["run", "fig9", "--scale-factor", "0.002"]) == 0
    out = capsys.readouterr().out
    assert "Q1.1" in out and "athena" in out.lower()


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


# -- lint command -----------------------------------------------------------


@pytest.mark.parametrize("argv", [["--help"], ["scenario", "list"]])
def test_help_and_scenario_list_load_no_experiment(argv):
    # Experiment modules are imported on dispatch; the experiments
    # package alone pulls in numpy and repro.query.
    script = (
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy' or m.startswith('repro.experiments')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_lint_self_strict_is_clean(capsys):
    # The checked-in baseline grandfathers the CLI's and the shard
    # coordinator's wall clocks; anything new fails CI.
    assert main(["lint", "--only", "self", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "suppressed by baseline" in out


def test_lint_functions_and_compositions(capsys):
    assert main(["lint", "--only", "functions,compositions", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "error(s)" in out


def test_lint_json_format(capsys):
    import json

    assert main(["lint", "--only", "self", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-lint/v1"


def test_lint_write_and_use_baseline(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    assert main(["lint", "--baseline", baseline, "--write-baseline"]) == 0
    capsys.readouterr()
    assert main(["lint", "--baseline", baseline, "--strict"]) == 0


def test_lint_scans_paths_for_dsl_blocks(tmp_path, capsys):
    script = tmp_path / "example.py"
    script.write_text(
        'DSL = """\n'
        "composition broken {\n"
        "    compute a uses f in(x) out(y);\n"
        "    input x -> a.x;\n"
        "}\n"
        '"""\n'
    )
    code = main(["lint", "--only", "compositions", str(script)])
    out = capsys.readouterr().out
    assert code == 1  # CMP000: no outputs declared
    assert "CMP000" in out


def test_lint_reports_sec8_static_table(capsys):
    assert main(["run", "sec8"]) == 0
    out = capsys.readouterr().out
    assert "static verifier rejected" in out


# -- removed surface: perf/ is the only bench system, lint has no cache -----


@pytest.mark.parametrize(
    "argv",
    [
        ["bench"], ["lint", "--no-cache"], ["lint", "--cache", "x"],
        # One replay model in one process: no shard/executor knobs.
        ["run", "fig10full", "--shards", "2"],
        ["scenario", "run", "fig10_full", "--executor", "serial"],
        # One pass selector (--only), two formats, whole-run baselines.
        ["lint", "--self"], ["lint", "--functions"], ["lint", "--compositions"],
        ["lint", "--dataflow"], ["lint", "--scenarios"],
        ["lint", "--only", "dataflow"], ["lint", "--format", "sarif"],
        ["lint", "--only", "self", "--write-baseline"],
    ],
)
def test_removed_commands_and_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2


@pytest.mark.parametrize(
    "module",
    [
        "repro.analysis.composition_lint", "repro.analysis.dataflow",
        "repro.analysis.dataflow_corpus", "repro.analysis.sarif",
        "repro.data.corpus",
    ],
)
def test_merged_and_moved_modules_leave_no_alias(module):
    from importlib import import_module

    with pytest.raises(ModuleNotFoundError):
        import_module(module)


def test_removed_bench_module_and_cache_parameter():
    from importlib import import_module

    from repro.analysis.runner import run_lint

    with pytest.raises(ModuleNotFoundError):
        import_module("repro.experiments.bench_kernel")
    with pytest.raises(TypeError):
        run_lint({"self"}, cache_path="x")
