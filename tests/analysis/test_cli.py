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
    # The RACE/CON/COST rules run as part of the compositions pass.
    proc = run_lint("--only", "compositions")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_findings_exit_one(tmp_path):
    racy = tmp_path / "racy.py"
    racy.write_text(RACY_BLOCK)
    proc = run_lint(str(racy), "--only", "compositions")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "CMP000" in proc.stdout


@pytest.mark.parametrize(
    "selection",
    [(), ("--only", "compositions"), ("--only", "self,compositions")],
    ids=["all", "compositions", "self+compositions"],
)
def test_unparseable_block_is_cmp000_under_every_selection(tmp_path, selection):
    # An unparseable block must fail every selection that includes
    # the compositions pass.  The path comes *after* --only on purpose:
    # the selector takes one comma list and must not swallow paths.
    racy = tmp_path / "racy.py"
    racy.write_text(RACY_BLOCK)
    proc = run_lint(*selection, "--strict", str(racy))
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
    # The broken block only matters to the compositions pass;
    # restricting to the functions pass must ignore it.
    racy = tmp_path / "racy.py"
    racy.write_text(RACY_BLOCK)
    proc = run_lint(
        "--only", "functions", "--format", "json", str(racy)
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["diagnostics"] == []


# -- the baseline is a whole-run artifact (--strict / --write-baseline) --------


@pytest.fixture
def stale_baseline(tmp_path):
    """The checked-in baseline plus one entry no finding will ever match."""
    checked_in = os.path.join(
        REPO_ROOT, "src", "repro", "analysis", "self_lint_baseline.json"
    )
    with open(checked_in, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["suppressions"]["CMP001::ghost.py::phantom"] = 1
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    return path


def test_strict_fails_on_stale_fingerprints(stale_baseline):
    proc = run_lint("--strict", "--baseline", str(stale_baseline))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "0 error(s), 0 warning(s)" in proc.stdout  # staleness alone fails
    assert "CMP001::ghost.py::phantom" in proc.stdout
    assert "stale" in proc.stdout.lower()


def test_nonstrict_ignores_stale_fingerprints(stale_baseline):
    proc = run_lint("--baseline", str(stale_baseline))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_scoped_strict_checks_new_findings_only(stale_baseline):
    # A pass that did not run observes none of its suppressions, so a
    # scoped run cannot tell stale from unobserved.
    proc = run_lint(
        "--only", "functions", "--strict", "--baseline", str(stale_baseline)
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "stale" not in proc.stdout.lower()


def test_write_baseline_prunes_only_ran_passes(stale_baseline):
    # Pruning needs every pass to have run: a scoped write would drop
    # the other passes' suppressions, so it is a usage error ...
    before = stale_baseline.read_text()
    proc = run_lint(
        "--only", "compositions", "--write-baseline",
        "--baseline", str(stale_baseline),
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert stale_baseline.read_text() == before
    # ... and a whole-run write drops the stale entry, keeps the live
    # ones, and leaves a strict re-run clean.
    proc = run_lint("--write-baseline", "--baseline", str(stale_baseline))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rewritten = json.loads(stale_baseline.read_text())["suppressions"]
    assert "CMP001::ghost.py::phantom" not in rewritten
    assert any(key.startswith("DET001::") for key in rewritten)
    proc = run_lint("--strict", "--baseline", str(stale_baseline))
    assert proc.returncode == 0, proc.stdout + proc.stderr
