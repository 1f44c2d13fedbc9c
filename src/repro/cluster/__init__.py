"""Cluster-level orchestration: Dirigent-like manager over worker fleets."""

from .faults import WorkerFaultInjector
from .manager import ROUTING_POLICIES, ClusterManager

__all__ = [
    "ROUTING_POLICIES",
    "ClusterManager",
    "WorkerFaultInjector",
]
