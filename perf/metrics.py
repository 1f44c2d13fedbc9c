"""The metric catalogue: every name the benchmark emits, with its unit,
direction, and — for per-layer metrics — the end-to-end metric and
workload it is expected to move.  ``BENCHMARK.json`` is generated from
this module (``python3 perf/metrics.py``) and perf/test_smoke.py fails
when the two drift apart.
"""

from __future__ import annotations

import json
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perf.layers import LAYERS

__all__ = ["WORKLOAD_WHY", "END_TO_END", "PER_LAYER", "EXACT", "RUN_SECONDS", "benchmark_json"]

RUN_SECONDS = 16

# name -> one-line rationale (parameters are in perf/workloads.py).
WORKLOAD_WHY = {
    "cluster_steady": (
        "sec62, 8 workers x 1.5 s (~2.4k echo invocations, 16 Zipf apps, no faults): "
        "happy path where sim, dispatcher and data do most of the work"
    ),
    "cluster_gray": (
        "sec63, 12 s with hedging, limp x4, 5% transient faults, crashes: the same "
        "cluster/dispatcher layers on their retry, reroute, health and hedge paths"
    ),
    "trace_replay": (
        "fig10_full at scale 30 x 120 s, dandelion then faas, shards=1 (2 x ~21k invocations): "
        "sim.sharded and trace dominate; sim, dispatcher, engines are bypassed"
    ),
    "dag_logproc": (
        "Fig 3 log-processing DAG, 16-core worker with PI control plane, 200 rps x 1 s: "
        "the only run of each fan-out, comm engines, net, composition expansion"
    ),
    "ssb_query": (
        "13 SSB queries, scale factor 0.005, 16 partitions: large payloads, query is "
        "most of the self time; bypass workload for simulator-side optimisations"
    ),
}

# (name, unit, better, bound).  ISSUE.md asked for 10% on norm_us_per_inv;
# the widest ten-seed spread seen on trace_replay was 4.7%, and a bound has
# to be three times the spread for the driver to accept it.
END_TO_END = (
    ("norm_us_per_inv", "us/inv", "lower", 0.15),
    ("setup_s", "s", "lower", 0.20),
    ("peak_rss_mib", "MiB", "lower", 0.10),
)

_SHARE = {
    # layer -> workloads on which its self-time share is large enough
    # (>= 3% at the first committed numbers) to move norm_us_per_inv.
    "sim": "cluster_steady, cluster_gray, dag_logproc",
    "sim.sharded": "trace_replay",
    "data": "cluster_steady, cluster_gray, dag_logproc, ssb_query",
    "composition": "dag_logproc",
    "functions": "cluster_steady, cluster_gray, dag_logproc",
    "dispatcher": "cluster_steady, cluster_gray, dag_logproc",
    "engines": "cluster_steady, cluster_gray, dag_logproc",
    "sched": "cluster_steady, cluster_gray",
    "controlplane": "dag_logproc",
    "cluster": "cluster_steady, cluster_gray",
    "net": "dag_logproc, ssb_query",
    "trace": "trace_replay",
    "scenario": "cluster_steady, cluster_gray, trace_replay",
    "baselines": "none today (the replay's FaaS node lives in sim.sharded)",
    "query": "ssb_query",
    "apps": "dag_logproc",
    "other": "every workload (backends, frontend, worker, harness driver)",
}

_NORM = "norm_us_per_inv"

# (name, unit, better, moves)
_COUNTS = (
    ("sim.events_per_inv", "events/inv", "lower",
     f"{_NORM} on cluster_steady, cluster_gray, dag_logproc"),
    ("sim.sharded.events_per_inv", "events/inv", "lower", f"{_NORM} on trace_replay"),
    ("sim.sharded.windows", "count", "lower", f"{_NORM} on trace_replay"),
    ("sim.sharded.host_ms_per_window", "ms", "lower", f"{_NORM} on trace_replay"),
    ("sim.sharded.stall_share", "fraction", "lower", f"{_NORM} on trace_replay"),
    ("sim.sharded.shards2_cost_ratio", "ratio", "lower",
     "coordinator overhead per extra shard; trace_replay only"),
    ("dispatcher.retries_per_inv", "count/inv", "lower", f"{_NORM} on cluster_gray"),
    ("dispatcher.deadline_expired_share", "fraction", "lower", f"{_NORM} on cluster_gray"),
    ("engines.compute_tasks_per_inv", "tasks/inv", "lower",
     f"{_NORM} on dag_logproc, ssb_query"),
    ("engines.comm_tasks_per_inv", "tasks/inv", "lower", f"{_NORM} on dag_logproc"),
    ("data.sim_peak_committed_mib", "MiB", "lower",
     "simulated statistic; peak_rss_mib only through payload copies"),
    ("cluster.reroutes_per_inv", "count/inv", "lower", f"{_NORM} on cluster_gray"),
    ("cluster.hedge_rate_pct", "%", "lower", f"{_NORM} on cluster_gray"),
    ("cluster.hedge_win_share", "fraction", "higher",
     "useful / issued hedges; wasted work on cluster_gray"),
    ("cluster.quarantine_entries", "count", "lower", f"{_NORM} on cluster_gray"),
    ("cluster.crashes", "count", "lower", "model output; zero on cluster_steady"),
    ("sched.imbalance", "ratio", "lower", "simulated statistic; must not move"),
    ("controlplane.comm_core_share", "fraction", "lower",
     "simulated statistic; dag_logproc"),
    ("baselines.cold_start_share", "fraction", "lower",
     "simulated statistic; trace_replay faas arm"),
    ("baselines.committed_ratio", "ratio", "higher",
     "Fig 10 headline (faas / dandelion committed bytes); must not move"),
    ("scenario.sim_p50_ms", "ms", "lower", "simulated statistic; must not move"),
    ("scenario.sim_p99_ms", "ms", "lower", "simulated statistic; must not move"),
    ("scenario.sim_goodput_rps", "1/s", "higher", "simulated statistic; must not move"),
    ("scenario.sim_success_pct", "%", "higher", "simulated statistic; must not move"),
    ("query.scanned_mb", "MB", "lower", "setup_s and peak_rss_mib on ssb_query"),
    ("query.sim_latency_s_mean", "s", "lower", "simulated statistic; ssb_query"),
)

_PROBES = (
    ("sim.timeout_ops_per_s", "1/s", "higher",
     f"{_NORM} on cluster_steady, cluster_gray, dag_logproc"),
    ("sim.process_spawn_per_s", "1/s", "higher",
     f"{_NORM} on cluster_steady, cluster_gray, dag_logproc"),
    ("data.serialize_mb_per_s", "MB/s", "higher", f"{_NORM} on ssb_query, dag_logproc"),
    ("data.parse_lazy_mb_per_s", "MB/s", "higher", f"{_NORM} on ssb_query, dag_logproc"),
    ("data.parse_strict_mb_per_s", "MB/s", "higher", "debug codec; no workload"),
    ("data.store_sets_per_s", "1/s", "higher", f"{_NORM} on cluster_steady, cluster_gray"),
    ("composition.parse_us", "us", "lower", "setup_s everywhere"),
    ("scenario.spec_parse_us", "us", "lower", "setup_s on the scenario workloads"),
    ("scenario.assemble_ms", "ms", "lower", "setup_s on cluster_steady, cluster_gray"),
    ("trace.arrivals_per_s", "1/s", "higher", f"{_NORM} on trace_replay"),
    ("dispatcher.single_inv_us", "us", "lower",
     f"{_NORM} on cluster_steady, cluster_gray"),
    ("sched.decisions_per_s", "1/s", "higher", f"{_NORM} on cluster_steady, cluster_gray"),
    ("cluster.health_observe_per_s", "1/s", "higher", f"{_NORM} on cluster_gray"),
    ("functions.guarded_call_us", "us", "lower",
     f"{_NORM} on cluster_steady, cluster_gray, dag_logproc"),
    ("query.local_rows_per_s", "1/s", "higher", f"{_NORM} on ssb_query"),
)

_HARNESS = (
    ("bench.calib_s", "s", "lower", "host speed; normalises norm_us_per_inv"),
    ("bench.rep_spread", "ratio", "lower", "q3/q1 of repetition walls; noise indicator"),
    ("bench.raw_inv_per_s", "1/s", "higher", "uncalibrated throughput, not gated"),
    ("bench.trace_overhead_ratio", "ratio", "lower", "traced wall / untraced median"),
    ("bench.attributed_share", "fraction", "higher",
     "profiled self time that reached a repro caller"),
    ("failed_share", "fraction", "lower", "host-level failed / attempted; must be 0"),
    ("sim_kpi_digest_changes", "count", "lower",
     "repetitions whose KPI digest differs from the first; must be 0"),
)

_TRACED = tuple(
    entry
    for layer in LAYERS
    for entry in (
        (f"{layer}.self_us_per_inv", "us/inv", "lower", f"{_NORM} on {_SHARE[layer]}"),
        (f"{layer}.calls_per_inv", "calls/inv", "lower", f"{_NORM} on {_SHARE[layer]}"),
    )
)

PER_LAYER = _TRACED + _COUNTS + _PROBES + _HARNESS

# Metrics that repeat exactly on one commit (deterministic simulator,
# PYTHONHASHSEED=0): every call count and every count or simulated
# statistic that is not a host time.
_HOST_TIMED_COUNTS = {
    "sim.sharded.host_ms_per_window",
    "sim.sharded.stall_share",
    "sim.sharded.shards2_cost_ratio",
}
EXACT = frozenset(
    [name for name, *_rest in _TRACED if name.endswith(".calls_per_inv")]
    + [name for name, *_rest in _COUNTS if name not in _HOST_TIMED_COUNTS]
    + ["failed_share", "sim_kpi_digest_changes"]
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
