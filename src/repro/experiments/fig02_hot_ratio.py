"""Fig 2 — Firecracker tail latency vs the percentage of hot requests.

"128x128 int64 matmul running in Firecracker MicroVMs.  The % of cold
requests greatly impacts performance" — median latency stays low, but
p99/p99.9 explode by orders of magnitude as soon as a small fraction of
requests must restore a MicroVM on the critical path (note the paper's
log scale).
"""

from __future__ import annotations

from ..baselines import FIRECRACKER_SNAPSHOT, FaasPlatform, compute_phase
from ..sim.core import Environment
from ..sim.distributions import Rng
from ..workloads.loadgen import run_open_loop
from ..workloads.phase_apps import MATMUL_128_SECONDS
from .common import ExperimentResult

__all__ = ["run_fig02"]

DEFAULT_HOT_RATIOS = (1.0, 0.9999, 0.999, 0.99, 0.98, 0.97)


def run_fig02(
    hot_ratios=DEFAULT_HOT_RATIOS,
    rate_rps: float = 400.0,
    duration_seconds: float = 20.0,
    cores: int = 16,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 2",
        description="128x128 matmul on Firecracker (snapshots): latency vs % hot requests (ms)",
        headers=["hot_pct", "p50_ms", "p95_ms", "p99_ms", "p999_ms", "max_ms"],
    )
    for index, hot_ratio in enumerate(hot_ratios):
        env = Environment()
        platform = FaasPlatform(
            env,
            FIRECRACKER_SNAPSHOT,
            cores,
            hot_ratio,
            Rng(seed * 100 + index),
        )
        platform.register_function("matmul", [compute_phase(MATMUL_128_SECONDS)])
        load = run_open_loop(
            env,
            lambda: platform.request("matmul"),
            rate_rps,
            duration_seconds,
            rng=Rng(seed * 100 + index + 50),
        )
        latencies = load.latencies
        result.add_row(
            hot_pct=f"{hot_ratio * 100:g}",
            p50_ms=latencies.percentile(50) * 1e3,
            p95_ms=latencies.percentile(95) * 1e3,
            p99_ms=latencies.percentile(99) * 1e3,
            p999_ms=latencies.percentile(99.9) * 1e3,
            max_ms=latencies.maximum * 1e3,
        )
    result.note(
        "paper: tail latency spans orders of magnitude between 100% and 97% hot"
    )
    return result
