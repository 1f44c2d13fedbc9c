"""Smoke test of the benchmark harness (``pytest perf/``; not tier-1).

Runs the whole suite once in ``--quick`` mode at a held-out seed with
``--check`` and asserts the harness's own contract: every metric named
in ``BENCHMARK.json`` is emitted exactly once per workload, under a
legal name and with a unit, and every output check passes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perf", "run.py")]
COMPARE = [sys.executable, os.path.join(ROOT, "perf", "compare.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "result.json"
    done = subprocess.run(
        RUN + ["--quick", "--seed", "1", "--check", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout
    return out, json.loads(out.read_text(encoding="utf-8")), done.stdout


def test_benchmark_json_is_the_catalogue(declared):
    sys.path.insert(0, ROOT)
    try:
        from perf.metrics import benchmark_json
    finally:
        sys.path.remove(ROOT)
    assert declared == benchmark_json()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])


def test_every_metric_emitted_once_per_workload(declared, quick_result):
    _path, result, stdout = quick_result
    assert result["seed"] == 1 and result["fingerprint"]["nproc"] >= 1
    for workload in (w["name"] for w in declared["workloads"]):
        record = result["workloads"][workload]
        assert record["failed"] == 0 and record["attempted"] >= 1
        for kind, value_key in (("end_to_end", "median"), ("per_layer", "value")):
            emitted = record[kind]
            assert sorted(emitted) == sorted(m["name"] for m in declared[kind])
            for metric in declared[kind]:
                entry = emitted[metric["name"]]
                assert entry["unit"] == metric["unit"] and UNIT.fullmatch(entry["unit"])
                assert isinstance(entry[value_key], (int, float))
                printed = re.findall(
                    rf"^{workload} {re.escape(metric['name'])} = ", stdout, re.M
                )
                assert len(printed) == 1, (workload, metric["name"])
        assert record["per_layer"]["failed_share"]["value"] == 0
        assert record["per_layer"]["sim_kpi_digest_changes"]["value"] == 0
        assert record["per_layer"]["bench.attributed_share"]["value"] >= 0.95


def test_contract_line(declared):
    done = subprocess.run(
        RUN + ["--workload", "cluster_steady", "--seed", "1", "--seconds", "1",
               "--trace", "0", "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(sorted(v) == ["unit", "value"] and v["value"] > 0
               for v in line["metrics"].values())


def test_compare_accepts_a_file_against_itself(quick_result):
    path, _result, _stdout = quick_result
    done = subprocess.run(
        COMPARE + [str(path), str(path)], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    assert done.returncode == 0, done.stdout
    assert "regression" not in done.stdout
