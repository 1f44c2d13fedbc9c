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

The replay itself goes through
:func:`~repro.scenario.engine.run_scenario` on a streamed-trace
:class:`~repro.scenario.spec.ScenarioSpec` (bundled as
``scenario/specs/fig10_full.toml``), one run per platform arm.
"""

from __future__ import annotations

from ..scenario.engine import run_scenario
from ..scenario.spec import FleetSpec, ScenarioSpec, TraceSpec
from .common import ExperimentResult

__all__ = ["run_fig10_full"]

MiB = 1 << 20

# The 1× reference point is run_fig10's default trace: a 100-function
# sample carrying 12 rps aggregate over a 1200 s window.
BASE_FUNCTIONS = 100
BASE_TOTAL_RPS = 12.0
BASE_DURATION_SECONDS = 1200.0


def _fleet_for(scale: float) -> tuple[int, int]:
    """Workers × cores sized to the scaled load (~48 rps per worker).

    Never fewer than 4 workers, so reduced scales still exercise
    routing over a fleet.
    """
    workers = max(4, round(scale / 4))
    return workers, 64


def _base_spec(
    scale: float,
    workers: int,
    cores_per_worker: int,
    window_seconds: float,
    seed: int,
) -> ScenarioSpec:
    return ScenarioSpec(
        name="fig10_full",
        seed=seed,
        trace=TraceSpec(
            kind="streamed",
            duration_seconds=BASE_DURATION_SECONDS,
            # Historical convention: the streamed trace reuses the run
            # seed directly (no +17 arrival-stream offset).
            seed_offset=0,
            scale=scale,
            functions_base=BASE_FUNCTIONS,
            rps_base=BASE_TOTAL_RPS,
            window_seconds=window_seconds,
        ),
        fleet=FleetSpec(workers=workers, cores=cores_per_worker),
    )


def run_fig10_full(
    scale: float = 100.0,
    workers: "int | None" = None,
    cores_per_worker: "int | None" = None,
    window_seconds: float = 0.5,
    seed: int = 42,
) -> ExperimentResult:
    default_workers, default_cores = _fleet_for(scale)
    workers = workers if workers is not None else default_workers
    cores_per_worker = (
        cores_per_worker if cores_per_worker is not None else default_cores
    )
    base = _base_spec(scale, workers, cores_per_worker, window_seconds, seed)
    reports = {}
    function_count = None
    for platform in ("dandelion", "faas"):
        run = run_scenario(base.with_overrides({"fleet.platform": platform}))
        reports[platform] = run.report
        function_count = run.meta["function_count"]

    result = ExperimentResult(
        name="Fig 10 (full scale)",
        description=(
            f"Azure trace at {scale:g}x sample scale "
            f"({function_count} functions, {workers}x{cores_per_worker} cores): "
            "Dandelion vs Firecracker+Knative"
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
    for platform, report in reports.items():
        cold_fraction = (
            1.0
            if platform == "dandelion"  # every request cold-creates by design
            else (report.cold_starts / report.completed if report.completed else 0.0)
        )
        result.add_row(
            platform=platform,
            invocations=report.completed,
            p50_ms=report.latency_percentile(50) * 1e3,
            p99_ms=report.latency_percentile(99) * 1e3,
            committed_mean_mib=report.committed_mean_bytes / MiB,
            active_mean_mib=(
                (report.active_mean_bytes / MiB)
                if report.active_mean_bytes is not None
                else report.committed_mean_bytes / MiB
            ),
            cold_fraction=cold_fraction,
        )

    dandelion = reports["dandelion"]
    faas = reports["faas"]
    savings = 100 * (1 - dandelion.committed_mean_bytes / faas.committed_mean_bytes)
    p99_reduction = 100 * (
        1 - dandelion.latency_percentile(99) / faas.latency_percentile(99)
    )
    result.note(
        f"average committed: dandelion {dandelion.committed_mean_bytes / MiB:.0f} MiB "
        f"vs firecracker {faas.committed_mean_bytes / MiB:.0f} MiB -> "
        f"{savings:.1f}% less (paper: 96% at full trace scale)"
    )
    result.note(
        f"p99 latency: dandelion {dandelion.latency_percentile(99) * 1e3:.0f} ms vs "
        f"firecracker {faas.latency_percentile(99) * 1e3:.0f} ms -> "
        f"{p99_reduction:.1f}% reduction (paper: 46%)"
    )
    result.note(
        f"{dandelion.routed} invocations routed over {dandelion.windows} windows "
        f"of {window_seconds:g}s; KPIs invariant to shard count and executor"
    )

    # Observability: wall-clock statistics stay out of the rendered
    # record.
    result.meta = {
        "scale": scale,
        "workers": workers,
        "cores_per_worker": cores_per_worker,
        "window_seconds": window_seconds,
        "seed": seed,
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
