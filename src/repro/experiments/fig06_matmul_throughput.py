"""Fig 6 — 128×128 matmul latency vs throughput on the 16-core server.

Dandelion creates a new sandbox per request (3% of requests load the
binary from disk rather than the RAM cache); Firecracker runs 97% hot;
Wasmtime pays its compute slowdown; Hyperlight pays per-request
runtime+module loading.  The paper's shape: Dandelion-KVM low and
stable, peaking at 4800 RPS; FC-snapshot saturates at 3000 RPS and gets
unstable beyond 2800; WT saturates at 2600 RPS with higher unloaded
latency; Hyperlight's unloaded average is 27.5 ms.
"""

from __future__ import annotations

import numpy as np

from ..baselines import (
    FIRECRACKER_SNAPSHOT,
    HYPERLIGHT_MATMUL,
    WASMTIME,
    FaasPlatform,
    compute_phase,
)
from ..data.items import DataItem, DataSet
from ..functions.sdk import compute_function
from ..sim.core import Environment
from ..sim.distributions import Rng
from ..workloads.loadgen import run_open_loop
from ..workloads.phase_apps import MATMUL_128_SECONDS
from .common import ExperimentResult
from .loaded_dandelion import DandelionLoadModel

__all__ = ["run_fig06", "matmul_128_binary", "DEFAULT_SYSTEMS"]

DEFAULT_SYSTEMS = (
    "dandelion-kvm",
    "dandelion-process",
    "dandelion-rwasm",
    "firecracker-snapshot",
    "wasmtime",
    "hyperlight",
)

_MATRIX_SIDE = 128


def matmul_128_binary():
    """A real 128x128 int64 matmul compute function."""

    @compute_function(
        name="matmul128",
        compute_cost=MATMUL_128_SECONDS,
        binary_size=96 * 1024,
        memory_limit=8 << 20,
    )
    def matmul(vfs):
        a = np.frombuffer(vfs.read_bytes("/in/a/matrix"), dtype=np.int64)
        b = np.frombuffer(vfs.read_bytes("/in/b/matrix"), dtype=np.int64)
        a = a.reshape(_MATRIX_SIDE, _MATRIX_SIDE)
        b = b.reshape(_MATRIX_SIDE, _MATRIX_SIDE)
        vfs.write_bytes("/out/c/matrix", (a @ b).tobytes())

    return matmul


def _matrix_inputs(seed: int = 0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(_MATRIX_SIDE, _MATRIX_SIDE), dtype=np.int64)
    b = rng.integers(0, 100, size=(_MATRIX_SIDE, _MATRIX_SIDE), dtype=np.int64)
    return [
        DataSet("a", [DataItem("matrix", a.tobytes())]),
        DataSet("b", [DataItem("matrix", b.tobytes())]),
    ]


def _make_submit(system: str, env: Environment, cores: int, seed: int):
    if system.startswith("dandelion-"):
        model = DandelionLoadModel(
            env,
            matmul_128_binary(),
            _matrix_inputs(seed),
            ["c"],
            cores=cores,
            backend_name=system.split("-", 1)[1],
            machine="linux",
            cold_load_fraction=0.03,  # "load from disk ... for 3% of requests"
            rng=Rng(seed),
        )
        return model.request
    if system == "firecracker-snapshot":
        platform = FaasPlatform(env, FIRECRACKER_SNAPSHOT, cores, 0.97, Rng(seed))
    elif system == "wasmtime":
        platform = FaasPlatform(env, WASMTIME, cores, 0.0, Rng(seed))
    elif system == "hyperlight":
        platform = FaasPlatform(env, HYPERLIGHT_MATMUL, cores, 0.0, Rng(seed))
    else:
        raise KeyError(f"unknown system {system!r}")
    platform.register_function("matmul128", [compute_phase(MATMUL_128_SECONDS)])
    return lambda: platform.request("matmul128")


def run_fig06(
    systems=DEFAULT_SYSTEMS,
    rates=(100, 500, 1000, 2000, 2600, 3000, 3600, 4200, 4800, 5400, 6000),
    duration_seconds: float = 1.0,
    cores: int = 16,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 6",
        description="128x128 matmul on 16-core server: median latency (p5/p95) vs offered RPS",
        headers=["system", "offered_rps", "achieved_rps", "p5_ms", "p50_ms", "p95_ms", "saturated"],
    )
    for system in systems:
        for rate in rates:
            env = Environment()
            submit = _make_submit(system, env, cores, seed)
            load = run_open_loop(
                env, submit, rate, duration_seconds,
                drain_seconds=5.0,
            )
            latencies = load.latencies
            result.add_row(
                system=system,
                offered_rps=rate,
                achieved_rps=load.achieved_rps,
                p5_ms=latencies.percentile(5) * 1e3 if len(latencies) else float("nan"),
                p50_ms=latencies.percentile(50) * 1e3 if len(latencies) else float("nan"),
                p95_ms=latencies.percentile(95) * 1e3 if len(latencies) else float("nan"),
                saturated=load.saturated,
            )
            if load.saturated:
                break
    result.note(
        "paper: Dandelion-KVM peaks at 4800 RPS; FC-snap saturates at 3000; "
        "WT at 2600; Hyperlight unloaded avg 27.5 ms"
    )
    return result
