"""Direction-aware diff of two benchmark result files.

    python3 perf/compare.py old.json new.json

For every workload × end-to-end metric: both medians, the change in the
metric's "worse" direction, and a verdict against the bound in
``BENCHMARK.json`` — ``regression`` (worse by more than the bound),
``improved`` (better by more than the bound), ``same``, or
``unresolved`` when either side's own quartile spread exceeds the bound
(the runs cannot tell a change of that size from noise).  Host-level
failures and KPI-digest changes must be zero on both sides.  Per-layer
metrics that repeat exactly (call counts, event counts, simulated
statistics: ``perf.metrics.EXACT``) are listed when they differ at all;
the rest when they moved by more than 10%.

Exits 1 on a regression, a failure, or mismatched seeds; 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    sys.path.insert(0, ROOT)

from perf.metrics import EXACT  # noqa: E402

_LAYER_NOISE = 0.10


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def compare_end_to_end(old: dict, new: dict, better: str, bound: float):
    """``(worse_by, verdict)``; ``worse_by`` > 0 means the metric got worse."""
    change = (new["median"] - old["median"]) / old["median"]
    worse_by = change if better == "lower" else -change
    if max(_spread(old), _spread(new)) > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    elif worse_by < -bound:
        verdict = "improved"
    else:
        verdict = "same"
    return worse_by, verdict


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = _load(argv[0]), _load(argv[1])
    benchmark = _load(os.path.join(ROOT, "BENCHMARK.json"))
    bad = 0
    for side, result in (("old", old), ("new", new)):
        print(f"{side}: seed {result['seed']}, {result['seconds']} s/run, "
              f"{json.dumps(result['fingerprint'], sort_keys=True)}")
    if old["seed"] != new["seed"] or old["quick"] != new["quick"]:
        print("DIFFERENT INPUTS: seeds or sizes differ; medians are not comparable")
        bad += 1

    print(f"\n{'workload':15s} {'metric':16s} {'old':>12s} {'new':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for name in old["workloads"]:
        before, after = old["workloads"][name], new["workloads"].get(name)
        if after is None:
            print(f"{name:15s} missing from the new file")
            bad += 1
            continue
        for entry in benchmark["end_to_end"]:
            metric = entry["name"]
            was, now = before["end_to_end"][metric], after["end_to_end"][metric]
            worse_by, verdict = compare_end_to_end(
                was, now, entry["better"], entry["bound"]
            )
            bad += verdict == "regression"
            print(f"{name:15s} {metric:16s} {was['median']:12.5g} {now['median']:12.5g} "
                  f"{100 * worse_by:+8.1f}% {100 * entry['bound']:5.0f}%  {verdict}")
        for side, record in (("old", before), ("new", after)):
            if record["failed"]:
                bad += 1
                print(f"{name:15s} {side}: {record['failed']} of {record['attempted']} "
                      f"checks FAILED: {'; '.join(record['failures'])}")
        if before["kpi_digest"] != after["kpi_digest"]:
            print(f"{name:15s} KPI digest changed: simulated statistics differ")

    print("\nper-layer metrics that moved:")
    for name in old["workloads"]:
        before = old["workloads"][name].get("per_layer", {})
        after = new["workloads"].get(name, {}).get("per_layer", {})
        for metric in before:
            was, now = before[metric]["value"], after.get(metric, {}).get("value")
            if now is None or was == now:
                continue
            change = (now - was) / was if was else float("inf")
            if metric in EXACT or abs(change) > _LAYER_NOISE:
                tag = "exact metric changed" if metric in EXACT else ""
                print(f"{name:15s} {metric:36s} {was:12.5g} -> {now:12.5g} "
                      f"{100 * change:+8.1f}%  {tag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
