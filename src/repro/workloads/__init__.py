"""Load generators and cross-platform phase-model workloads."""

from .loadgen import LoadResult, run_arrivals, run_open_loop
from .phase_apps import (
    FETCH_COMPUTE_SECONDS,
    FETCH_IO_SECONDS,
    FETCH_PAYLOAD_BYTES,
    MATMUL_128_SECONDS,
    MATMUL_1x1_SECONDS,
    FixedDelayService,
    fetch_and_compute_phases,
    matmul_phases,
    register_phase_composition,
)

__all__ = [
    "LoadResult",
    "run_arrivals",
    "run_open_loop",
    "FETCH_COMPUTE_SECONDS",
    "FETCH_IO_SECONDS",
    "FETCH_PAYLOAD_BYTES",
    "MATMUL_128_SECONDS",
    "MATMUL_1x1_SECONDS",
    "FixedDelayService",
    "fetch_and_compute_phases",
    "matmul_phases",
    "register_phase_composition",
]
