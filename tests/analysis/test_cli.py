"""End-to-end `python -m repro lint` CLI: exit codes, formats, scoping."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

RACY_BLOCK = '''
"""A module embedding a broken composition block."""

PIPELINE = """
composition broken {
    compute work uses nonexistent in(src) out(;
    input start -> work.src;
}
"""
'''


def run_lint(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO_ROOT,
    )


def test_clean_dataflow_lint_exits_zero():
    proc = run_lint("--only", "dataflow")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_findings_exit_one(tmp_path):
    racy = tmp_path / "racy.py"
    racy.write_text(RACY_BLOCK)
    proc = run_lint(str(racy), "--only", "compositions")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "CMP000" in proc.stdout


def test_usage_error_exits_two():
    proc = run_lint("--only", "nonsense")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_json_schema_is_stable(tmp_path):
    racy = tmp_path / "racy.py"
    racy.write_text(RACY_BLOCK)
    proc = run_lint(
        "--only", "compositions", "--format", "json", str(racy)
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["schema"] == "repro-lint/v1"
    assert payload["errors"] >= 1
    row = payload["diagnostics"][0]
    assert set(row) == {
        "code", "severity", "message", "file", "line", "symbol", "hint",
        "fingerprint",
    }
    assert row["code"] == "CMP000"
    assert row["fingerprint"].startswith("CMP000::")


def test_only_selects_passes(tmp_path):
    # The broken block only matters to the compositions/dataflow
    # passes; restricting to the functions pass must ignore it.
    racy = tmp_path / "racy.py"
    racy.write_text(RACY_BLOCK)
    proc = run_lint(
        "--only", "functions", "--format", "json", str(racy)
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["diagnostics"] == []


def test_sarif_format_parses(tmp_path):
    racy = tmp_path / "racy.py"
    racy.write_text(RACY_BLOCK)
    proc = run_lint(
        "--only", "compositions", "--format", "sarif", str(racy)
    )
    assert proc.returncode == 1
    log = json.loads(proc.stdout)
    assert log["version"] == "2.1.0"
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["CMP000"]


# -- stale baseline handling (--strict / --write-baseline) ---------------------


@pytest.fixture
def stale_baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "schema": "repro-lint-baseline/v1",
        "suppressions": {
            # Stale for the compositions pass: no current CMP finding
            # will ever match this fabricated fingerprint.
            "CMP001::ghost.py::phantom": 1,
            # Out of scope for the compositions pass: must survive
            # pruning untouched.
            "DET001::ghost.py::phantom": 2,
        },
    }))
    return path


def test_strict_fails_on_stale_fingerprints(stale_baseline):
    proc = run_lint(
        "--only", "compositions", "--strict",
        "--baseline", str(stale_baseline),
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "CMP001::ghost.py::phantom" in proc.stdout
    assert "stale" in proc.stdout.lower()


def test_nonstrict_ignores_stale_fingerprints(stale_baseline):
    proc = run_lint(
        "--only", "compositions",
        "--baseline", str(stale_baseline),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_write_baseline_prunes_only_ran_passes(stale_baseline):
    proc = run_lint(
        "--only", "compositions", "--write-baseline",
        "--baseline", str(stale_baseline),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rewritten = json.loads(stale_baseline.read_text())["suppressions"]
    assert "CMP001::ghost.py::phantom" not in rewritten  # stale, in scope
    assert rewritten.get("DET001::ghost.py::phantom") == 2  # out of scope
    # And a strict re-run against the pruned baseline is clean.
    proc = run_lint(
        "--only", "compositions", "--strict",
        "--baseline", str(stale_baseline),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
