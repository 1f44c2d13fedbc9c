"""Cluster-level orchestration: Dirigent-like manager over worker fleets."""

from .. import _lazy_exports

_EXPORTS = {
    "ROUTING_POLICIES": "..sched.routing",
    "ClusterManager": ".manager",
    "WorkerFaultInjector": ".faults",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
