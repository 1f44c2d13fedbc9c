"""Baseline platforms: Firecracker, gVisor, Wasmtime, Hyperlight, D-hybrid."""

from .base import (
    FaasPlatform,
    FunctionModel,
    Phase,
    PlatformSpec,
    RequestRecord,
    compute_phase,
    io_phase,
)
from .dhybrid import DHybridPlatform
from .specs import (
    FIRECRACKER,
    FIRECRACKER_SNAPSHOT,
    GVISOR,
    HYPERLIGHT,
    HYPERLIGHT_MATMUL,
    WASM_COMPUTE_SLOWDOWN,
    WASMTIME,
)

__all__ = [
    "FaasPlatform",
    "FunctionModel",
    "Phase",
    "PlatformSpec",
    "RequestRecord",
    "compute_phase",
    "io_phase",
    "DHybridPlatform",
    "FIRECRACKER",
    "FIRECRACKER_SNAPSHOT",
    "GVISOR",
    "HYPERLIGHT",
    "HYPERLIGHT_MATMUL",
    "WASM_COMPUTE_SLOWDOWN",
    "WASMTIME",
]
