"""Figs 1 and 10 — Azure-trace memory and latency experiments.

Both figures replay the (synthetic) Azure Functions trace sample — the
bundled ``fig10_full`` scenario at ``trace.scale=1`` (100 functions,
12 rps aggregate) on one 16-core node — and render the committed /
active memory grids and latencies of the replay report:

* **Fig 1** contrasts the memory Knative-style autoscaling *commits*
  (warm MicroVMs held after requests) against the memory required by
  the VMs *actively serving requests* — the paper measures ~16× average
  over-provisioning.

* **Fig 10** adds Dandelion: per-request contexts mean committed ==
  active, reducing average committed memory by ~96% vs
  Firecracker+Knative (109 MB vs 2619 MB in the paper) while also
  cutting p99 latency (−46% in the paper) because no request waits on
  a snapshot restore.
"""

from __future__ import annotations

from ..scenario.engine import run_scenario
from ..scenario.spec import load_spec
from .common import ExperimentResult

__all__ = ["run_fig01", "run_fig10"]

MiB = 1 << 20


def _replay(platform: str, duration_seconds: float):
    """The 1× sample on one 16-core node → ``ShardedReplayReport``."""
    spec = load_spec("fig10_full").with_overrides(
        {
            "trace.scale": 1.0,
            "trace.duration_seconds": duration_seconds,
            "fleet.workers": 1,
            "fleet.cores": 16,
            "fleet.platform": platform,
        }
    )
    return run_scenario(spec).report


def run_fig01(duration_seconds: float = 1200.0) -> ExperimentResult:
    report = _replay("faas", duration_seconds)
    result = ExperimentResult(
        name="Fig 1",
        description="Azure trace on Knative-autoscaled MicroVMs: committed vs active memory (MiB)",
        headers=["time_s", "committed_mib", "active_mib"],
    )
    for index, (committed, active) in enumerate(
        zip(report.committed_grid, report.active_grid)
    ):
        result.add_row(
            time_s=index * report.grid_step,
            committed_mib=committed / MiB,
            active_mib=active / MiB,
        )
    average_committed = report.committed_mean_bytes / MiB
    average_active = max(report.active_mean_bytes / MiB, 1e-9)
    result.note(
        f"average committed {average_committed:.0f} MiB vs active "
        f"{average_active:.0f} MiB -> {average_committed / average_active:.1f}x "
        "over-provisioning (paper: ~16x)"
    )
    result.note(
        f"cold fraction {100 * report.cold_starts / report.completed:.1f}% "
        "(paper: ~3.3%)"
    )
    return result


def run_fig10(duration_seconds: float = 1200.0) -> ExperimentResult:
    dandelion = _replay("dandelion", duration_seconds)
    firecracker = _replay("faas", duration_seconds)
    result = ExperimentResult(
        name="Fig 10",
        description="Azure trace: committed memory over time, Dandelion vs Firecracker+Knative (MiB)",
        headers=["time_s", "dandelion_mib", "firecracker_mib"],
    )
    for index, (dandelion_bytes, fc_bytes) in enumerate(
        zip(dandelion.committed_grid, firecracker.committed_grid)
    ):
        result.add_row(
            time_s=index * dandelion.grid_step,
            dandelion_mib=dandelion_bytes / MiB,
            firecracker_mib=fc_bytes / MiB,
        )
    dandelion_avg = dandelion.committed_mean_bytes / MiB
    firecracker_avg = firecracker.committed_mean_bytes / MiB
    savings = 100 * (1 - dandelion_avg / firecracker_avg)
    dandelion_p99 = dandelion.latency_percentile(99)
    firecracker_p99 = firecracker.latency_percentile(99)
    result.note(
        f"average committed: dandelion {dandelion_avg:.0f} MiB vs firecracker "
        f"{firecracker_avg:.0f} MiB -> {savings:.1f}% less (paper: 96%, 109 vs 2619 MB)"
    )
    result.note(
        f"p99 latency: dandelion {dandelion_p99 * 1e3:.0f} ms vs "
        f"firecracker {firecracker_p99 * 1e3:.0f} ms -> "
        f"{100 * (1 - dandelion_p99 / firecracker_p99):.1f}% reduction (paper: 46%)"
    )
    result.note(
        f"requests: {dandelion.completed}; dandelion cold fraction 100% by design"
    )
    return result
