"""Cluster routing policies (Dirigent-style load balancing, §5).

Each policy implements ``decide(ClusterSnapshot) -> worker index`` and
owns all of its mutable state — its rotation cursor, its RNG stream —
so policies compose: two clusters (or two policies on one cluster in a
benchmark harness) never perturb each other's decision streams.

Determinism rules (docs/scheduling.md): a policy's decisions must be a
pure function of (its constructor arguments, the sequence of snapshots
it has seen).  Seeded policies draw only from the :class:`Rng` they
were built with; tie-breaks are always by worker index, never by dict
or set order.

The legacy string names live in :data:`ROUTING_POLICIES`, a name→class
registry, so ``ClusterManager(policy="least_loaded")`` and every
existing experiment keep working unchanged.
"""

from __future__ import annotations

from typing import Optional

from .snapshots import ClusterSnapshot

__all__ = [
    "RoutingPolicy",
    "RoundRobin",
    "LeastOutstanding",
    "Random",
    "RandomRouting",
    "JSQ",
    "LocalityAware",
    "GrayFailureAware",
    "ROUTING_POLICIES",
    "make_routing_policy",
]

_INF = float("inf")

# Workers JSQ samples per decision (power of two choices).
JSQ_D = 2
# In-flight lead over the lightest healthy worker at which LocalityAware
# and GrayFailureAware give up their preferred worker.
SPILL_MARGIN = 3


class RoutingPolicy:
    """Base class for cluster routing policies.

    ``decide`` returns the index of the worker to route to, or ``None``
    when no healthy worker exists.  ``build(rng)`` is the uniform
    constructor used by name-based lookup through
    :data:`ROUTING_POLICIES`; policies that need randomness receive the
    cluster's seeded :class:`~repro.sim.distributions.Rng`, the others
    ignore it.
    """

    __slots__ = ()

    #: registry key; subclasses override.
    name = "abstract"

    @classmethod
    def build(cls, rng) -> "RoutingPolicy":
        return cls()

    def decide(self, snapshot: ClusterSnapshot) -> Optional[int]:
        raise NotImplementedError


def _least_outstanding_choice(snapshot: ClusterSnapshot, candidates) -> int:
    """Fewest in-flight invocations, ties broken by worker index.

    Runs once per routed invocation, so the scan indexes the snapshot's
    per-worker counters directly (the documented ``in_flight(i)``
    contract) instead of paying a key-function allocation per decision.
    """
    loads = snapshot._in_flight
    best = None
    best_load = None
    for index in candidates:
        load = loads[index]
        if best is None or load < best_load or (load == best_load and index < best):
            best = index
            best_load = load
    return best


class RoundRobin(RoutingPolicy):
    """Rotate over the stable worker-index ring, skipping unhealthy.

    The cursor advances over worker *indices* (0..worker_count-1), not
    over positions in the current healthy list: a fleet-size change or
    a worker failing/recovering therefore never shifts the phase of the
    rotation for the workers that stayed up.  (The legacy
    implementation took one shared counter modulo the current healthy
    count, so any membership change permanently skewed the rotation.)

    Quarantined workers are skipped the same way dead ones are; when
    the whole fleet is quarantined the rotation falls back to plain
    health so traffic still flows.
    """

    __slots__ = ("_cursor",)

    name = "round_robin"

    def __init__(self):
        self._cursor = 0

    def decide(self, snapshot: ClusterSnapshot) -> Optional[int]:
        count = snapshot.worker_count
        if count <= 0 or not snapshot.healthy:
            return None
        cursor = self._cursor
        for offset in range(count):
            index = (cursor + offset) % count
            if snapshot.is_routable(index):
                self._cursor = (index + 1) % count
                return index
        # Every healthy worker is quarantined: degrade to plain health.
        for offset in range(count):
            index = (cursor + offset) % count
            if snapshot.is_healthy(index):
                self._cursor = (index + 1) % count
                return index
        return None


class LeastOutstanding(RoutingPolicy):
    """Fewest in-flight invocations (Dirigent-style just-in-time
    placement); deterministic tie-break by worker index."""

    __slots__ = ()

    name = "least_loaded"

    def decide(self, snapshot: ClusterSnapshot) -> Optional[int]:
        if not snapshot.healthy:
            return None
        return _least_outstanding_choice(snapshot, snapshot.candidates)


class RandomRouting(RoutingPolicy):
    """Seeded uniform choice over the routable (non-quarantined) workers."""

    __slots__ = ("rng",)

    name = "random"

    def __init__(self, rng):
        if rng is None:
            raise ValueError("RandomRouting requires a seeded Rng")
        self.rng = rng

    @classmethod
    def build(cls, rng) -> "RandomRouting":
        return cls(rng)

    def decide(self, snapshot: ClusterSnapshot) -> Optional[int]:
        if not snapshot.healthy:
            return None
        return self.rng.choice(snapshot.candidates)


#: Alias matching the paper-facing policy name; ``RandomRouting`` is
#: the canonical class name so importers don't shadow ``random.Random``.
Random = RandomRouting


class JSQ(RoutingPolicy):
    """Join-the-shortest-of-d-queues (power-of-d-choices) sampling.

    Samples ``JSQ_D`` distinct healthy workers from the seeded stream and
    routes to the least loaded of them, ties broken by index — the
    classic load-balancing result that two random choices already get
    exponentially close to least-loaded at a fraction of the state
    freshness requirements (Mitzenmacher '01).  With ``JSQ_D`` at or above
    the healthy fleet size no sampling happens (and no RNG draw is
    consumed): the decision stream is identical to
    :class:`LeastOutstanding`, which the property tests pin.
    """

    __slots__ = ("rng",)

    name = "jsq"

    def __init__(self, rng):
        if rng is None:
            raise ValueError("JSQ requires a seeded Rng")
        self.rng = rng

    @classmethod
    def build(cls, rng) -> "JSQ":
        return cls(rng)

    def decide(self, snapshot: ClusterSnapshot) -> Optional[int]:
        if not snapshot.healthy:
            return None
        pool = snapshot.candidates
        if JSQ_D >= len(pool):
            return _least_outstanding_choice(snapshot, pool)
        sampled = self.rng.sample(pool, JSQ_D)
        return _least_outstanding_choice(snapshot, sampled)


class LocalityAware(RoutingPolicy):
    """Prefer workers whose binary caches are warm for this composition,
    with a load-bounded spill.

    Scores each healthy worker by how many of the invoked composition's
    function binaries are already in its in-RAM binary cache (a warm
    worker skips the load-from-disk stage entirely, §7.2's dominant
    cold-start cost), then routes to the warmest; among equally warm
    workers the least loaded wins, then the lowest index.

    Pure cache affinity is a trap under skewed popularity: a hot
    composition would pin to the one worker that first loaded its
    binary and saturate it while the rest of the fleet idles.  So the
    preference is *bounded* (in the spirit of bounded-load consistent
    hashing): when the warmest candidate already carries
    ``SPILL_MARGIN`` more in-flight invocations than the least-loaded
    healthy worker, the decision spills to plain least-outstanding
    instead.  The spill target cold-loads the binary once and becomes
    warm itself, so a popular composition's warm set grows exactly as
    fast as its load requires — rare compositions stay pinned to one
    cache, hot ones expand.

    A fleet with no warm worker degenerates to least-outstanding, so
    the first invocation of each composition seeds exactly one worker's
    cache and later traffic gravitates there — stateless task placement
    with cache affinity, without any pinned assignment to go stale.
    """

    __slots__ = ()

    name = "locality"

    def decide(self, snapshot: ClusterSnapshot) -> Optional[int]:
        if not snapshot.healthy:
            return None
        pool = snapshot.candidates
        if not snapshot.composition_functions:
            return _least_outstanding_choice(snapshot, pool)
        warm_count = snapshot.warm_count
        in_flight = snapshot.in_flight
        warmest = min(
            pool,
            key=lambda index: (-warm_count(index), in_flight(index), index),
        )
        if warm_count(warmest) == 0:
            return _least_outstanding_choice(snapshot, pool)
        lightest = min(in_flight(index) for index in pool)
        if in_flight(warmest) - lightest >= SPILL_MARGIN:
            return _least_outstanding_choice(snapshot, pool)
        return warmest


class GrayFailureAware(RoutingPolicy):
    """Latency-quarantine routing with load-bounded spill-back.

    The fail-stop detectors behind ``snapshot.healthy`` only notice
    workers that *die*; a limplock worker (degraded disk/NIC, §6.1's
    gray-failure regime) stays in the healthy ring while serving every
    request several times slower.  This policy consumes the latency
    health the cluster manager maintains (EWMA scores + quarantine
    flags) and routes least-outstanding over the *preferred* ring —
    healthy and not quarantined.

    Two escape hatches keep a degraded fleet live and recoverable:

    * **All-quarantined fallback** — when every healthy worker is
      quarantined there is no good choice, only a least-bad one: route
      by (latency score, in-flight, index), so traffic keeps flowing
      through the least-degraded worker instead of stalling.
    * **Load-bounded spill-back** — quarantining shrinks the serving
      set, and a hot fleet can overload the survivors.  In the spirit
      of :class:`LocalityAware`'s bounded preference, when the chosen
      preferred worker already carries ``SPILL_MARGIN`` more in-flight
      invocations than the lightest *healthy* worker, the decision
      spills back to least-outstanding over the full healthy ring.
      The spill doubles as the recovery probe: quarantined workers keep
      receiving a trickle of traffic, so their scores keep updating and
      a recovered worker re-earns its place.
    """

    __slots__ = ()

    name = "gray"

    @staticmethod
    def _least_bad(snapshot: ClusterSnapshot, pool) -> int:
        """Lowest latency score, then load, then index; NaN scores last."""
        loads = snapshot._in_flight
        best = None
        best_key = None
        for index in pool:
            score = snapshot.latency_score(index)
            if score != score:  # NaN: no data, assume worst
                score = _INF
            key = (score, loads[index], index)
            if best is None or key < best_key:
                best = index
                best_key = key
        return best

    def decide(self, snapshot: ClusterSnapshot) -> Optional[int]:
        healthy = snapshot.healthy
        if not healthy:
            return None
        preferred = snapshot.preferred
        if not preferred:
            return self._least_bad(snapshot, healthy)
        choice = _least_outstanding_choice(snapshot, preferred)
        if len(preferred) < len(healthy):
            loads = snapshot._in_flight
            lightest = min(loads[index] for index in healthy)
            if loads[choice] - lightest >= SPILL_MARGIN:
                return _least_outstanding_choice(snapshot, healthy)
        return choice


#: Back-compat name→class registry.  The legacy tuple of policy names
#: (``"round_robin"``, ``"least_loaded"``, ``"random"``) became the
#: keys of this mapping, so ``policy in ROUTING_POLICIES`` and
#: ``ClusterManager(policy="...")`` behave exactly as before; the new
#: policies are reachable by the same route.
ROUTING_POLICIES: dict = {
    "round_robin": RoundRobin,
    "least_loaded": LeastOutstanding,
    "random": RandomRouting,
    "jsq": JSQ,
    "locality": LocalityAware,
    "gray": GrayFailureAware,
}


def make_routing_policy(policy, rng) -> RoutingPolicy:
    """Resolve a policy argument: a registered name or a policy object."""
    if isinstance(policy, RoutingPolicy):
        return policy
    if isinstance(policy, str):
        cls = ROUTING_POLICIES.get(policy)
        if cls is None:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of "
                f"{tuple(ROUTING_POLICIES)}"
            )
        return cls.build(rng)
    raise TypeError(
        f"policy must be a name or a RoutingPolicy, got {type(policy).__name__}"
    )
