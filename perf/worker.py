"""One workload, measured in this process (spawned by perf/run.py).

Untraced (``--trace 0``): a warm-up repetition, then repetitions for
``--seconds`` seconds; every repetition is a fresh set-up plus the timed
public calls, each bracketed by the calibration kernel, followed by the
output checks.  Traced (``--trace 1``): a shorter untraced pass (exact counts,
harness metrics, the checks that need a second run), one repetition
under ``cProfile`` for the per-layer attribution, then the probes; the
spans go to ``perf/out/<workload>.trace.json``.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import sys
import time

from .harness import (
    CALIB_REFERENCE_S,
    Tracer,
    calibrate,
    collector_paused,
    digest,
    quartiles,
)
from .layers import attribute
from .workloads import WORKLOADS

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _timed_part(part):
    """What the ``run`` span times: the part, then one full collection.

    Whether an automatic full collection lands inside a 0.3 s part
    depends on allocation counts carried over from before it, which made
    the per-invocation cost bimodal across seeds.  So the collector runs
    exactly once per part, at its end and inside the timed span: its
    work is still counted (the profile books it under ``other``).
    """
    with collector_paused():
        outcome = part()
    gc.collect()
    return outcome


def _repetition(workload, tracer, index, profile=None):
    """Fresh set-up, then the timed parts, with the calibration kernel
    before, between and after them.  Returns ``(state, outcomes, times)``;
    ``times`` has raw and calibrated (``norm_``) seconds of the set-up
    and of the parts, and the mean kernel wall."""
    calibs = [calibrate()]
    times = {"setup_s": 0.0, "norm_setup_s": 0.0, "run_s": 0.0, "norm_run_s": 0.0}

    def account(kind, span):
        calibs.append(calibrate())
        wall = span["end"] - span["start"]
        times[f"{kind}_s"] += wall
        times[f"norm_{kind}_s"] += (
            wall * CALIB_REFERENCE_S / ((calibs[-2] + calibs[-1]) / 2)
        )

    with tracer.span("repetition", index=index):
        with tracer.span("setup") as setup:
            state = workload.setup(tracer)
        account("setup", setup)
        outcomes = []
        for part in workload.parts(state, tracer):
            with tracer.span("run", profiled=profile is not None) as run:
                if profile is None:
                    outcomes.append(_timed_part(part))
                else:
                    outcomes.append(profile.runcall(_timed_part, part))
            account("run", run)
    times["calib_s"] = sum(calibs) / len(calibs)
    return state, outcomes, times


class _Ledger:
    """Host-level operations attempted/failed and the KPI digest check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.first_digest = None
        self.digest_changes = 0

    def record(self, report) -> None:
        for ok, what in report["checks"]:
            self.attempted += 1
            if not ok:
                self.failures.append(what)
        self.attempted += 1
        value = digest(report["kpi"])
        if self.first_digest is None:
            self.first_digest = value
        elif value != self.first_digest:
            self.digest_changes += 1
            self.failures.append("KPI digest differs from repetition 1")


def _untraced(workload, tracer, ledger, seconds, min_reps, deep):
    """The timed repetitions; returns (samples, first report)."""
    samples = {"norm_us_per_inv": [], "setup_calls_s": [], "run_s": [],
               "calib_s": [], "raw_inv_per_s": []}
    first_report = None
    begin = time.perf_counter()
    while True:
        gc.collect()
        index = len(samples["run_s"])
        state, outcomes, times = _repetition(workload, tracer, index)
        with tracer.span("report", index=index):
            report = workload.report(state, outcomes, deep and index == 0, tracer)
        ledger.record(report)
        if first_report is None:
            first_report = report
        completed = max(report["completed"], 1)
        samples["norm_us_per_inv"].append(1e6 * times["norm_run_s"] / completed)
        samples["setup_calls_s"].append(times["norm_setup_s"])
        samples["run_s"].append(times["run_s"])
        samples["calib_s"].append(times["calib_s"])
        samples["raw_inv_per_s"].append(completed / times["run_s"])
        done = index + 1
        elapsed = time.perf_counter() - begin
        # Stop when the next repetition would end after the window.
        if done >= min_reps and elapsed + elapsed / done / 2 >= seconds:
            return samples, first_report


def _traced(workload, tracer, ledger, untraced_run_s):
    """One repetition under cProfile -> per-layer metrics."""
    import repro

    profile = cProfile.Profile()
    gc.collect()
    state, outcomes, times = _repetition(workload, tracer, -1, profile)
    report = workload.report(state, outcomes, False, tracer)
    ledger.record(report)
    layers = attribute(profile.getstats(), os.path.dirname(repro.__file__))
    completed = max(report["completed"], 1)
    metrics = {
        "bench.trace_overhead_ratio": times["run_s"] / untraced_run_s,
        "bench.attributed_share": layers["attributed_share"],
    }
    # Self times at reference speed, like the end-to-end metric: scaled by
    # what the kernel runs around the profiled parts said of the host.
    at_reference = times["norm_run_s"] / times["run_s"]
    for layer, seconds in layers["self_s"].items():
        metrics[f"{layer}.self_us_per_inv"] = 1e6 * seconds * at_reference / completed
        metrics[f"{layer}.calls_per_inv"] = layers["calls"][layer] / completed
    return metrics, state


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer(f"{args.workload}-seed{args.seed}")
    with tracer.span("import repro"):
        import repro  # noqa: F401 - cold import, timed once

    from .probes import run_probes

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    ledger = _Ledger()
    min_reps = 1 if args.quick else 3
    seconds = 0.0 if args.quick else args.seconds
    if not args.quick:
        with tracer.span("warm-up"):
            _repetition(workload, tracer, -2)

    per_layer = {}
    if args.trace == 0:
        samples, _report = _untraced(
            workload, tracer, ledger, seconds, min_reps, args.check
        )
    else:
        samples, report = _untraced(
            workload, tracer, ledger, 0.4 * seconds, min_reps, True
        )
        per_layer.update(report["counts"])
        run_s = quartiles(samples["run_s"])
        traced, state = _traced(workload, tracer, ledger, run_s["median"])
        per_layer.update(traced)
        per_layer.update(run_probes(workload.probe_inputs(state), tracer))
        per_layer.update({
            "bench.calib_s": quartiles(samples["calib_s"])["median"],
            "bench.rep_spread": run_s["q3"] / run_s["q1"],
            "bench.raw_inv_per_s": quartiles(samples["raw_inv_per_s"])["median"],
            "failed_share": len(ledger.failures) / ledger.attempted,
            "sim_kpi_digest_changes": ledger.digest_changes,
        })
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{args.workload}.trace.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracer.chrome_trace(), handle)

    result = {
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failures": ledger.failures[:10],
        "kpi_digest": ledger.first_digest,
        "norm_us_per_inv": quartiles(samples["norm_us_per_inv"]),
        "setup_calls_s": quartiles(samples["setup_calls_s"]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "per_layer": per_layer,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
