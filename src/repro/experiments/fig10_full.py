"""Fig 10 at 100× trace scale — sharded replay of a ≥10k-function trace.

``run_fig10`` replays a 100-function InVitro-style sample; the paper's
elasticity claims are really about full Azure-trace populations.  This
experiment replays the same Dandelion-vs-Firecracker+Knative comparison
at ``scale`` times the sample (``scale=100`` → 10,000 functions at
1,200 rps aggregate) through :mod:`repro.sim.sharded`: a streamed trace
(16 B per invocation), window-batched routing over the fleet snapshot,
and FIFO-core workers that need no event kernel.

Everything wall-clock — event counts, coordinator wall seconds — lands
in ``result.meta`` and never touches the deterministic rendered output.

The scenario is the bundled ``scenario/specs/fig10_full.toml``: this
module reads it, overrides only ``trace.scale`` and the fleet sized to
it, and replays it through :func:`~repro.scenario.engine.run_scenario`
once per platform arm, rendering each arm's KpiRecord.
"""

from __future__ import annotations

from ..scenario.engine import run_scenario
from ..scenario.spec import load_spec
from .common import ExperimentResult

__all__ = ["run_fig10_full"]


def _fleet_for(scale: float) -> tuple[int, int]:
    """Workers × cores sized to the scaled load (~48 rps per worker).

    Never fewer than 4 workers, so reduced scales still exercise
    routing over a fleet.
    """
    workers = max(4, round(scale / 4))
    return workers, 64


def run_fig10_full(scale: float | None = None) -> ExperimentResult:
    """Replay the bundled spec at ``scale`` (default: the spec's own)."""
    base = load_spec("fig10_full")
    if scale is None:
        scale = base.trace.scale
    workers, cores = _fleet_for(scale)
    base = base.with_overrides({
        "trace.scale": scale, "fleet.workers": workers, "fleet.cores": cores,
    })
    runs = {
        platform: run_scenario(base.with_overrides({"fleet.platform": platform}))
        for platform in ("dandelion", "faas")
    }

    result = ExperimentResult(
        name="Fig 10 (full scale)",
        description=(
            f"Azure trace at {scale:g}x sample scale "
            f"({runs['faas'].meta['function_count']} functions, "
            f"{workers}x{cores} cores): Dandelion vs Firecracker+Knative"
        ),
        headers=[
            "platform",
            "invocations",
            "p50_ms",
            "p99_ms",
            "committed_mean_mib",
            "active_mean_mib",
            "cold_fraction",
        ],
    )
    for platform, run in runs.items():
        kpis = run.kpis
        result.add_row(
            platform=platform,
            invocations=kpis.completed,
            p50_ms=kpis.p50_ms,
            p99_ms=kpis.p99_ms,
            committed_mean_mib=kpis.extras["committed_mean_mib"],
            active_mean_mib=kpis.extras["active_mean_mib"],
            # Every Dandelion request cold-creates its context by design.
            cold_fraction=(
                1.0 if platform == "dandelion" else kpis.extras["cold_fraction"]
            ),
        )

    reports = {platform: run.report for platform, run in runs.items()}
    dandelion, faas = runs["dandelion"].kpis, runs["faas"].kpis
    dandelion_mib = dandelion.extras["committed_mean_mib"]
    faas_mib = faas.extras["committed_mean_mib"]
    result.note(
        f"average committed: dandelion {dandelion_mib:.0f} MiB "
        f"vs firecracker {faas_mib:.0f} MiB -> "
        f"{100 * (1 - dandelion_mib / faas_mib):.1f}% less "
        "(paper: 96% at full trace scale)"
    )
    result.note(
        f"p99 latency: dandelion {dandelion.p99_ms:.0f} ms vs "
        f"firecracker {faas.p99_ms:.0f} ms -> "
        f"{100 * (1 - dandelion.p99_ms / faas.p99_ms):.1f}% reduction (paper: 46%)"
    )
    result.note(
        f"{dandelion.offered} invocations routed over "
        f"{reports['dandelion'].windows} windows "
        f"of {base.trace.window_seconds:g}s; KPIs invariant to shard count and executor"
    )

    # Observability: wall-clock statistics stay out of the rendered
    # record.
    result.meta = {
        "scale": scale,
        "workers": workers,
        "cores_per_worker": cores,
        "window_seconds": base.trace.window_seconds,
        "seed": base.seed,
        "platforms": {
            platform: {
                "wall_seconds": round(report.wall_seconds, 3),
                "events": report.events,
                "windows": report.windows,
                "events_per_second": (
                    round(report.events / report.wall_seconds)
                    if report.wall_seconds > 0
                    else None
                ),
            }
            for platform, report in reports.items()
        },
    }
    return result
