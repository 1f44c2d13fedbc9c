"""Isolation backends (KVM / process / CHERI / rWasm) and cost models."""

from .. import _lazy_exports

_EXPORTS = {
    "BACKEND_NAMES": ".costs",
    "IsolationBackend": ".base",
    "SandboxExecution": ".base",
    "create_backend": ".base",
    "default_compute_seconds": ".base",
    "BACKEND_SPECS": ".costs",
    "BackendSpec": ".costs",
    "MICROSECOND": ".costs",
    "REFERENCE_BINARY_SIZE": ".costs",
    "REFERENCE_PAYLOAD_SIZE": ".costs",
    "StageCosts": ".costs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
