"""Baseline platforms: Firecracker, gVisor, Wasmtime, Hyperlight, D-hybrid."""

from .. import _lazy_exports

_EXPORTS = {
    "FaasPlatform": ".base",
    "FunctionModel": ".base",
    "Phase": ".base",
    "RequestRecord": ".base",
    "compute_phase": ".base",
    "io_phase": ".base",
    "DHybridPlatform": ".dhybrid",
    "PlatformSpec": ".specs",
    "FIRECRACKER": ".specs",
    "FIRECRACKER_SNAPSHOT": ".specs",
    "GVISOR": ".specs",
    "HYPERLIGHT": ".specs",
    "HYPERLIGHT_MATMUL": ".specs",
    "WASM_COMPUTE_SLOWDOWN": ".specs",
    "WASMTIME": ".specs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
