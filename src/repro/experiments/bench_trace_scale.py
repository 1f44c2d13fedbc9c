"""Trace-scale benchmark: wall clock of the sharded replay.

Times :func:`~repro.sim.sharded.run_sharded_replay` on the fig10_full
invocation stream at 1, 2 and 4 shards stepped serially, plus 4 shards
on the ``auto`` executor (one process per shard when the host has the
CPUs).  The numbers land in ``BENCH_trace_scale.json``; the CI
trace-scale smoke job re-measures the reduced (10×) matrix and gates on
:data:`FLOORS`.

Scale is relative to ``run_fig10``'s 100-function sample: ``scale=10``
is 1,000 functions at 120 rps aggregate over the same 1200 s window
(~70k invocations), ``scale=100`` is the fig10_full headline (10,000
functions, ~670k invocations).  docs/simulation.md ("Sharded
execution") keeps the history of what this replay replaced.
"""

from __future__ import annotations

import json
import platform
import sys
import time

__all__ = [
    "run_trace_scale_bench",
    "trace_scale_matrix",
    "DEFAULT_OUTPUT",
    "FLOORS",
]

DEFAULT_OUTPUT = "BENCH_trace_scale.json"

# CI gate (see .github/workflows/ci.yml, trace-scale job), re-measured
# at 10× on every run and set to hold on a single-CPU host.
FLOORS = {"events_per_second_min": 40_000}


def _sharded_row(trace, workers, cores_per_worker, shards, executor) -> dict:
    from ..sim.sharded import ShardedConfig, run_sharded_replay

    config = ShardedConfig(
        workers=workers,
        cores_per_worker=cores_per_worker,
        shards=shards,
        executor=executor,
    )
    start = time.perf_counter()
    report = run_sharded_replay(trace, config)
    wall = time.perf_counter() - start
    return {
        "shards": shards,
        "executor": executor,
        "executor_mode": report.executor_mode,
        "invocations": report.routed,
        "events": report.events,
        "wall_seconds": round(wall, 3),
        "events_per_second": round(report.events / wall) if wall > 0 else None,
        "windows": report.windows,
        "stall_seconds": round(
            sum(stats["stall_seconds"] for stats in report.shard_stats), 3
        ),
    }


def trace_scale_matrix(scale: float = 10.0) -> dict:
    """One scale's measurement matrix (the CI smoke re-runs this at 10×)."""
    from .fig10_full import _fleet_for, full_trace

    workers, cores_per_worker = _fleet_for(scale)
    rows = [
        _sharded_row(full_trace(scale), workers, cores_per_worker, shards, executor)
        for shards, executor in ((1, "serial"), (2, "serial"), (4, "serial"), (4, "auto"))
    ]
    return {
        "scale": scale,
        "workers": workers,
        "cores_per_worker": cores_per_worker,
        "rows": rows,
    }


def run_trace_scale_bench(
    scales=(10.0,), output: "str | None" = DEFAULT_OUTPUT
) -> dict:
    """Measure the matrix at each scale; optionally write ``output``."""
    from ..sim.sharded.coordinator import _available_cpus

    report = {
        "schema": "repro-bench-trace-scale/v2",
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": _available_cpus(),
        "floors": FLOORS,
        "measured": {f"scale_{scale:g}x": trace_scale_matrix(scale) for scale in scales},
    }
    if output:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return report
