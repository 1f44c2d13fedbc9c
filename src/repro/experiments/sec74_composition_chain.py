"""§7.4 — composition performance overhead vs chain depth.

"A microbenchmark that fetches a 64KiB array and computes sum, min and
max over a sample of the elements; we call this sequence a phase.  We
sweep the number of phases in the microbenchmark from 2 to 16."

Dandelion pays a sandbox creation per compute function in the chain
(cached or uncached binary), while Firecracker-hot runs the whole chain
inside one warm MicroVM; Firecracker-cold pays one snapshot restore up
front; Wasmtime runs the chain in one instance with its compute
slowdown.  The paper's findings: all systems scale linearly; Dandelion
KVM uncached is ~17% slower than FC-hot at 8 phases and ~4 ms slower at
16; cached vs uncached differ by only ~0.5 ms at 16 phases; Dandelion
is 4.6× faster than FC-cold at 16 phases.
"""

from __future__ import annotations

from ..baselines import (
    FIRECRACKER_SNAPSHOT,
    WASMTIME,
    FaasPlatform,
)
from ..sim.core import Environment
from ..sim.distributions import Rng
from ..worker import WorkerConfig, WorkerNode
from ..workloads.phase_apps import fetch_and_compute_phases, register_phase_composition
from .common import ExperimentResult

__all__ = ["run_sec74"]

DEFAULT_DEPTHS = (2, 4, 8, 12, 16)


def _dandelion_latency(depth: int, cache_mode: str, cores: int) -> float:
    worker = WorkerNode(
        WorkerConfig(
            total_cores=cores,
            control_plane_enabled=False,
            cache_mode=cache_mode,
            backend="kvm",
            machine="linux",
        )
    )
    name = register_phase_composition(
        worker, f"chain{depth}", fetch_and_compute_phases(depth)
    )
    result = worker.invoke_and_run(name, {"data": b"x"})
    if not result.ok:
        raise RuntimeError(f"chain invocation failed: {result.error}")
    return result.latency


def _baseline_latency(spec, hot_ratio: float, depth: int, cores: int) -> float:
    env = Environment()
    platform = FaasPlatform(env, spec, cores, hot_ratio, Rng(1))
    platform.register_function("chain", fetch_and_compute_phases(depth))
    record = env.run(until=platform.request("chain"))
    return record.latency


def run_sec74(depths=DEFAULT_DEPTHS, cores: int = 16) -> ExperimentResult:
    result = ExperimentResult(
        name="§7.4",
        description="Composition chain latency (ms) vs number of fetch+compute phases",
        headers=[
            "phases",
            "dandelion_uncached_ms",
            "dandelion_cached_ms",
            "fc_hot_ms",
            "fc_cold_ms",
            "wasmtime_ms",
        ],
    )
    for depth in depths:
        row = {
            "phases": depth,
            "dandelion_uncached_ms": _dandelion_latency(depth, "never", cores) * 1e3,
            "dandelion_cached_ms": _dandelion_latency(depth, "always", cores) * 1e3,
            "fc_hot_ms": _baseline_latency(FIRECRACKER_SNAPSHOT, 1.0, depth, cores) * 1e3,
            "fc_cold_ms": _baseline_latency(FIRECRACKER_SNAPSHOT, 0.0, depth, cores) * 1e3,
            "wasmtime_ms": _baseline_latency(WASMTIME, 0.0, depth, cores) * 1e3,
        }
        result.add_row(**row)
    final = result.rows[-1]
    if final["phases"] == 16:
        result.note(
            "at 16 phases: Dandelion uncached vs FC-hot: "
            f"+{final['dandelion_uncached_ms'] - final['fc_hot_ms']:.2f} ms; "
            f"cached vs uncached diff {final['dandelion_uncached_ms'] - final['dandelion_cached_ms']:.2f} ms; "
            f"FC-cold / Dandelion uncached = {final['fc_cold_ms'] / final['dandelion_uncached_ms']:.2f}x"
        )
    result.note(
        "paper: +17% vs FC-hot at 8 phases, ~4 ms at 16; cached/uncached diff 0.5 ms; 4.6x vs FC-cold"
    )
    return result
