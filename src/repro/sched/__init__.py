"""Cluster routing (`repro.sched`).

Dandelion's cluster manager places every invocation on a worker (§5).
This package makes that decision a *policy object* over an immutable,
cheaply-built :class:`ClusterSnapshot`, so alternative routers
(power-of-d-choices, locality-aware, latency-quarantine) can be swept
without touching the cluster manager (see docs/scheduling.md):

* the **snapshot** is a read-only view of the decision inputs, built in
  O(1) on the hot path (shared tuples are maintained incrementally by
  the cluster manager);
* a **policy** implements ``decide(snapshot) -> worker index`` and owns
  all of its mutable state (cursors, RNG streams), so two policies
  never interfere and a policy's decision stream is reproducible from
  its seed;
* the **cluster manager actuates** the returned choice — policies never
  mutate the system themselves.

The registered names live in :data:`ROUTING_POLICIES`.
"""

from .routing import (
    JSQ,
    GrayFailureAware,
    LeastOutstanding,
    LocalityAware,
    RandomRouting,
    RoundRobin,
    RoutingPolicy,
    ROUTING_POLICIES,
    make_routing_policy,
)
from .snapshots import ClusterSnapshot

__all__ = [
    "ClusterSnapshot",
    "GrayFailureAware",
    "JSQ",
    "LeastOutstanding",
    "LocalityAware",
    "RandomRouting",
    "RoundRobin",
    "RoutingPolicy",
    "ROUTING_POLICIES",
    "make_routing_policy",
]
