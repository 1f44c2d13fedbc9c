"""The repo benchmark (see perf/README.md).

One workload, as the benchmark contract runs it::

    python3 perf/run.py --workload cluster_steady --seed 0 --seconds 12 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric)
by name with its unit, then one JSON object on the last line.  Without
``--workload`` it runs all five workloads, untraced then traced (or
only the pass ``--trace`` names), prints every metric, and writes a
result file that perf/compare.py can diff.

Each workload runs in a fresh single-threaded subprocess with
``PYTHONHASHSEED=0``; this process only measures interpreter start +
``import repro`` and collects the results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    sys.path.insert(0, ROOT)

from perf.harness import CALIB_REFERENCE_S, calibrate, quartiles  # noqa: E402
from perf.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_WHY  # noqa: E402

SOURCE = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perf", "out")
RESULT_SCHEMA = "repro-perf/v1"
_IMPORT_SAMPLES = 8


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SOURCE, ROOT])
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _import_seconds(samples: int) -> list:
    """Interpreter start + ``import repro``, cold each time, in seconds
    at reference speed (the calibration kernel runs around each sample)."""
    walls = []
    calib_before = calibrate()
    for _ in range(samples):
        begin = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"],
            env=_child_env(), cwd=ROOT, check=True,
        )
        wall = time.perf_counter() - begin
        calib_after = calibrate()
        walls.append(wall * CALIB_REFERENCE_S / ((calib_before + calib_after) / 2))
        calib_before = calib_after
    return walls


def run_workload(name, seed, seconds, trace, check=False, quick=False) -> dict:
    """Measure one workload in a subprocess; returns its result record."""
    # Half the import samples before the workload and half after it, so
    # a slow stretch of the host does not land on all of them.
    import_walls = _import_seconds(1 if quick else _IMPORT_SAMPLES // 2)
    command = [
        sys.executable, "-m", "perf.worker", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    command += ["--check"] if check else []
    command += ["--quick"] if quick else []
    done = subprocess.run(
        command, env=_child_env(), cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True,
    )
    if not quick:
        import_walls += _import_seconds(_IMPORT_SAMPLES - _IMPORT_SAMPLES // 2)
    imports = quartiles(import_walls)
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    calls = raw["setup_calls_s"]
    units = {metric: unit for metric, unit, _better, _bound in END_TO_END}
    end_to_end = {
        "norm_us_per_inv": raw["norm_us_per_inv"],
        "setup_s": {
            "median": imports["median"] + calls["median"],
            "q1": imports["q1"] + calls["q1"],
            "q3": imports["q3"] + calls["q3"],
            "n": min(imports["n"], calls["n"]),
        },
        "peak_rss_mib": quartiles([raw["peak_rss_mib"]]),
    }
    for metric, stats in end_to_end.items():
        stats["unit"] = units[metric]
    record = {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "kpi_digest": raw["kpi_digest"],
        "end_to_end": end_to_end,
    }
    if trace:
        record["per_layer"] = {
            metric: {"value": raw["per_layer"].get(metric, 0.0), "unit": unit}
            for metric, unit, _better, _moves in PER_LAYER
        }
    return record


def _print_metrics(name: str, record: dict, trace: int) -> None:
    if trace:
        for metric, entry in record["per_layer"].items():
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    else:
        for metric, stats in record["end_to_end"].items():
            print(
                f"{name} {metric} = {stats['median']:.6g} {stats['unit']} "
                f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n {stats['n']})"
            )
    print(f"{name} failed = {record['failed']} of {record['attempted']} checks")
    for failure in record["failures"]:
        print(f"{name} FAILED: {failure}")


def _contract_line(record: dict, trace: int) -> str:
    """The benchmark contract's result object for one run."""
    if trace:
        metrics = {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in record["per_layer"].items()
        }
    else:
        metrics = {
            metric: {"value": stats["median"], "unit": stats["unit"]}
            for metric, stats in record["end_to_end"].items()
        }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--check", action="store_true",
                        help="add the checks that need a second run; exit 1 on any failure")
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition of ~10x shorter inputs (smoke test)")
    parser.add_argument("--out", help="result file (all-workloads mode)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perf/run.py: no repro package under {SOURCE}", file=sys.stderr)
        return 2

    if args.workload:
        trace = args.trace or 0
        record = run_workload(
            args.workload, args.seed, args.seconds, trace, args.check, args.quick
        )
        _print_metrics(args.workload, record, trace)
        print(_contract_line(record, trace))
        return 1 if args.check and record["failed"] else 0

    passes = (0, 1) if args.trace is None else (args.trace,)
    result = {
        "schema": RESULT_SCHEMA,
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {name: {} for name in WORKLOAD_WHY},
    }
    failed = 0
    for trace in passes:
        for name in WORKLOAD_WHY:
            record = run_workload(
                name, args.seed, args.seconds, trace, args.check, args.quick
            )
            _print_metrics(name, record, trace)
            failed += record["failed"]
            merged = result["workloads"][name]
            if trace and "end_to_end" in merged:
                # End-to-end metrics always come from the untraced pass.
                del record["end_to_end"]
                record["attempted"] += merged["attempted"]
                record["failed"] += merged["failed"]
                record["failures"] += merged["failures"]
            merged.update(record)
    out = args.out or os.path.join(OUT_DIR, f"result-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(out)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
