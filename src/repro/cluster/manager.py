"""Cluster manager — Dirigent-like multi-worker orchestration (§5).

"The cluster manager orchestrates multiple worker nodes and load
balances composition invocations across nodes.  We extended Dirigent to
support Dandelion worker nodes, but other cluster managers could also
be used."

The :class:`ClusterManager` owns a fleet of :class:`WorkerNode`\\ s that
share one simulation environment and one simulated network (so they see
the same remote services), replicates function/composition
registrations across the fleet, and routes invocations through a
pluggable :class:`~repro.sched.routing.RoutingPolicy` (see
docs/scheduling.md).  Policies are named in the back-compat
:data:`ROUTING_POLICIES` registry or passed as objects:

* ``round_robin`` — rotate over the stable worker-index ring;
* ``least_loaded`` — fewest in-flight invocations (Dirigent-style
  just-in-time placement);
* ``random`` — seeded uniform choice;
* ``jsq`` — power-of-d-choices sampling (d=2);
* ``locality`` — prefer workers with warm binary caches for the
  invoked composition;
* ``gray`` — quarantine latency-degraded workers with load-bounded
  spill-back (requires ``latency_health=True``).

Routing decisions consume an immutable
:class:`~repro.sched.snapshots.ClusterSnapshot` built in O(1): the
healthy-index ring is maintained incrementally on
``fail_worker``/``restore_worker``/``add_worker`` rather than rebuilt
per invocation.

Workers can also be added while the cluster is running (scale-out);
previously registered functions and compositions are replayed onto the
new node before it receives traffic.

The request path is continuation-passing: :meth:`ClusterManager.start`
takes the caller's ``on_done`` (``invoke`` wraps it in an event), and one
slotted :class:`_Routed` object carries the invocation from the routing
call through crash re-route and the hedge race to its outcome — no
simulation process per invocation or per attempt.

Fail-stop fault domain (§6.1): :meth:`fail_worker` crashes a worker —
it is skipped by routing, invocations in flight on it are re-routed to
a healthy peer in the order they were routed (safe because compositions
are pure compute and protocol-checked communication, so re-execution is
transparent), and its state is lost.  :meth:`restore_worker` brings the
node back as a *fresh* worker with registrations replayed, mirroring how
Dirigent re-admits a recovered node.  :class:`~repro.cluster.faults.WorkerFaultInjector`
drives these transitions from seeded MTTF/MTTR distributions.

Gray-failure fault domain (docs/fault_tolerance.md): :meth:`limp_worker`
degrades a worker's engine throughput without killing it — the
"limplock" regime fail-stop detectors are blind to.  Two optional
defenses, both off by default (and byte-identical to the legacy
behaviour when off):

* ``latency_health=True`` maintains a per-worker completion-latency
  EWMA (:class:`~repro.cluster.health.LatencyHealthTracker`) and a
  *preferred* routing ring excluding quarantined workers, which every
  routing policy consumes through the snapshot's ``candidates``;
* ``hedge=True`` re-issues an invocation to a second worker once it
  has been outstanding longer than a percentile of observed latency,
  taking whichever completion arrives first.  Hedges are only sent for
  pure-compute compositions (re-execution is idempotent, §6.1) and are
  capped at ``hedge_budget_fraction`` of traffic.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Union

from ..composition.graph import Composition
from ..composition.registry import FunctionBinary, RegistryError
from ..dispatcher.dispatcher import InvocationResult
from ..errors import InvocationError, WorkerCrashed
from ..net.network import LatencyModel, SimulatedNetwork
from ..sched import ClusterSnapshot, RoutingPolicy, make_routing_policy
from ..sched.routing import ROUTING_POLICIES
from ..sim.core import Environment
from ..sim.distributions import Rng
from ..sim.metrics import LatencyRecorder
from ..worker import WorkerConfig, WorkerNode
from .health import LatencyHealthTracker

__all__ = ["ClusterManager", "ROUTING_POLICIES"]

# Cluster-manager hop: routing decision + request forwarding.
_ROUTING_OVERHEAD_SECONDS = 50e-6
# Re-routes after fail-stop crashes before an invocation fails with
# WorkerCrashed.
MAX_REROUTES = 3
# Completions observed before the hedge trigger (a latency percentile)
# is trusted; no hedge is sent before then.
HEDGE_MIN_SAMPLES = 20


def _pure_compute(composition: Composition) -> bool:
    """True when the composition (recursively) has no communication
    nodes — the idempotency precondition for hedged re-execution."""
    for node in composition.nodes.values():
        if node.kind == "communication":
            return False
        if node.kind == "composition" and not _pure_compute(node.composition):
            return False
    return True


class ClusterManager:
    """Routes composition invocations over a fleet of worker nodes."""

    def __init__(
        self,
        worker_count: int = 2,
        worker_config: Optional[WorkerConfig] = None,
        policy: Union[str, RoutingPolicy] = "least_loaded",
        seed: int = 0,
        latency_health: bool = False,
        quarantine_ttl_seconds: float = 1.0,
        hedge: bool = False,
        hedge_percentile: float = 95.0,
        hedge_budget_fraction: float = 0.05,
    ):
        if worker_count < 1:
            raise ValueError("cluster needs at least one worker")
        if not 0.0 < hedge_percentile < 100.0:
            raise ValueError("hedge_percentile must be in (0, 100)")
        if not 0.0 <= hedge_budget_fraction <= 1.0:
            raise ValueError("hedge_budget_fraction must be in [0, 1]")
        self.env = Environment()
        self.network = SimulatedNetwork(self.env, LatencyModel())
        self._rng = Rng(seed)
        self.routing_policy = make_routing_policy(policy, self._rng)
        # Back-compat: `.policy` stays the string name experiments log.
        self.policy = policy if isinstance(policy, str) else self.routing_policy.name
        self._config = worker_config or WorkerConfig()
        self.workers: list[WorkerNode] = []
        self._functions: list[FunctionBinary] = []
        self._compositions: list = []
        # Function names used by each registered composition, sorted for
        # deterministic locality scoring (snapshot contract).
        self._composition_functions: dict[str, tuple] = {}
        self._in_flight: dict[int, int] = {}
        self._healthy: dict[int, bool] = {}
        # Healthy-index ring, maintained incrementally so the fault-free
        # routing fast path builds its snapshot in O(1).
        self._healthy_indices: tuple = ()
        # Invocations with an attempt on each worker, in routing order
        # (dict keys); re-routed in that order when the worker
        # fail-stops.
        self._crash_waiters: dict[int, dict] = {}
        self.latencies = LatencyRecorder("cluster")
        self.failed_latencies = LatencyRecorder("cluster-failed")
        self.invocations_routed = 0
        self.invocations_failed = 0
        self.worker_crashes = 0
        self.worker_restores = 0
        self.reroutes = 0
        self.per_worker_invocations: dict[int, int] = {}
        self.per_worker_failures: dict[int, int] = {}
        self.per_worker_crashes: dict[int, int] = {}
        # Gray-failure defenses.  `health is None` (the default) keeps
        # the snapshot free of health references, so every routing
        # policy sees exactly the legacy inputs and fault-free runs
        # stay bit-identical.
        self.health: Optional[LatencyHealthTracker] = (
            LatencyHealthTracker() if latency_health else None
        )
        # Preferred ring: healthy AND not quarantined, maintained
        # incrementally like the healthy ring (rebuilt only on
        # quarantine flips and membership changes).
        self._preferred_indices: tuple = ()
        # Quarantine is a probation, not a death sentence: a sidelined
        # worker receives (almost) no traffic, so its EWMA can never
        # recover on its own.  After the TTL the manager forgets the
        # worker's latency history and lets it re-earn its place — a
        # still-limping worker re-quarantines within the tracker's
        # MIN_SAMPLES completions, a recovered one rejoins cleanly.
        if quarantine_ttl_seconds <= 0:
            raise ValueError("quarantine_ttl_seconds must be positive")
        self.quarantine_ttl_seconds = quarantine_ttl_seconds
        self.hedge = hedge
        self.hedge_percentile = hedge_percentile
        self.hedge_budget_fraction = hedge_budget_fraction
        self.hedges_issued = 0
        self.hedges_won = 0
        self._hedged_invocations = 0
        # composition name -> safe to hedge (pure compute, §6.1).
        self._hedgeable: dict[str, bool] = {}
        for _ in range(worker_count):
            self.add_worker()

    # -- fleet management ------------------------------------------------------

    def add_worker(self) -> WorkerNode:
        """Add (scale out) one worker; replays existing registrations."""
        worker = self._fresh_worker()
        index = len(self.workers)
        self.workers.append(worker)
        self._in_flight[index] = 0
        self._healthy[index] = True
        self._refresh_healthy_indices()
        self._refresh_preferred_indices()
        self._crash_waiters[index] = {}
        self.per_worker_invocations[index] = 0
        self.per_worker_failures[index] = 0
        self.per_worker_crashes[index] = 0
        return worker

    def _fresh_worker(self) -> WorkerNode:
        worker = WorkerNode(self._config, env=self.env, network=self.network)
        for binary in self._functions:
            worker.frontend.register_function(binary)
        for composition in self._compositions:
            worker.frontend.register_composition(composition)
        return worker

    @property
    def worker_count(self) -> int:
        return len(self.workers)

    @property
    def healthy_worker_count(self) -> int:
        return len(self._healthy_indices)

    def is_healthy(self, index: int) -> bool:
        return self._healthy[index]

    def _refresh_healthy_indices(self) -> None:
        """Rebuild the healthy ring on membership changes (rare: add,
        fail, restore) so routing never rescans the fleet."""
        self._healthy_indices = tuple(
            index for index, ok in self._healthy.items() if ok
        )

    def _refresh_preferred_indices(self) -> None:
        """Rebuild the preferred (non-quarantined) ring.

        Runs only on quarantine flips and membership changes — both
        rare — so routing keeps its O(1) snapshot on the hot path."""
        if self.health is None:
            return
        is_quarantined = self.health.is_quarantined
        self._preferred_indices = tuple(
            index for index in self._healthy_indices if not is_quarantined(index)
        )

    def is_quarantined(self, index: int) -> bool:
        return self.health is not None and self.health.is_quarantined(index)

    # -- fail-stop fault domain (§6.1) ----------------------------------------

    def fail_worker(self, index: int) -> None:
        """Crash worker ``index`` (fail-stop): its state is lost.

        Routing skips the worker from now on, and every invocation
        currently in flight on it is re-routed to a healthy peer, in the
        order they were routed — transparent re-execution is safe
        because compositions are pure (§6.1).  The crashed node's
        in-simulation activity is abandoned (results discarded), the
        discrete-event analogue of the process disappearing.
        """
        if not 0 <= index < len(self.workers):
            raise IndexError(f"no worker {index}")
        if not self._healthy[index]:
            raise ValueError(f"worker {index} is already failed")
        self._healthy[index] = False
        self._refresh_healthy_indices()
        if self.health is not None:
            # A dead worker's latency history is meaningless for the
            # fresh node that will replace it.
            self.health.reset(index)
            self._refresh_preferred_indices()
        self.worker_crashes += 1
        self.per_worker_crashes[index] += 1
        waiters = self._crash_waiters[index]
        self._crash_waiters[index] = {}
        if waiters:
            # One heap hop later: a caller failing several workers in
            # one step sees them all down before anything is re-routed.
            self.env.call_later(0.0, self._reroute_crashed, index, waiters)

    def _reroute_crashed(self, index: int, waiters: dict) -> None:
        for routed in waiters:
            routed.attempt_crashed(index)

    def restore_worker(self, index: int) -> WorkerNode:
        """Bring worker ``index`` back as a fresh node (state was lost).

        Fail-stop semantics mean nothing survives the crash, so restore
        builds a brand-new :class:`WorkerNode` and replays every
        function/composition registration before the node re-enters the
        routing pool.
        """
        if not 0 <= index < len(self.workers):
            raise IndexError(f"no worker {index}")
        if self._healthy[index]:
            raise ValueError(f"worker {index} is healthy; nothing to restore")
        worker = self._fresh_worker()
        self.workers[index] = worker
        self._healthy[index] = True
        self._refresh_healthy_indices()
        if self.health is not None:
            self.health.reset(index)
            self._refresh_preferred_indices()
        self._in_flight[index] = 0
        self.worker_restores += 1
        return worker

    # -- gray-failure fault domain (limplock) ---------------------------------

    def limp_worker(self, index: int, multiplier: float) -> None:
        """Degrade worker ``index`` to ``1/multiplier`` of nominal speed.

        The worker stays in the healthy ring and keeps serving — just
        slower (every compute service time and network exchange is
        stretched by ``multiplier``).  Fail-stop detection cannot see
        this; only latency-based health can.
        """
        if not 0 <= index < len(self.workers):
            raise IndexError(f"no worker {index}")
        if not self._healthy[index]:
            raise ValueError(f"worker {index} is down; dead workers cannot limp")
        self.workers[index].set_limp(multiplier)

    def clear_limp(self, index: int) -> None:
        """Restore worker ``index`` to nominal engine throughput."""
        if not 0 <= index < len(self.workers):
            raise IndexError(f"no worker {index}")
        self.workers[index].set_limp(1.0)

    def limp_factor(self, index: int) -> float:
        return self.workers[index].limp_multiplier

    @property
    def limping_worker_count(self) -> int:
        return sum(1 for worker in self.workers if worker.throttle.limping)

    # -- registration (fanned out to every node) ----------------------------------

    def register_function(self, binary: FunctionBinary) -> None:
        self._functions.append(binary)
        for worker in self.workers:
            worker.frontend.register_function(binary)

    def register_composition(self, composition_or_source) -> Composition:
        registered: Optional[Composition] = None
        for worker in self.workers:
            registered = worker.frontend.register_composition(composition_or_source)
        assert registered is not None
        self._compositions.append(registered)
        self._composition_functions[registered.name] = tuple(
            sorted(registered.required_functions())
        )
        self._hedgeable[registered.name] = _pure_compute(registered)
        return registered

    # -- routing ---------------------------------------------------------------

    def _warm_functions_of(self, index: int):
        """Live warm-binary view of one worker (locality signal)."""
        return self.workers[index].dispatcher.warm_binaries

    def snapshot(self, composition_name: Optional[str] = None) -> ClusterSnapshot:
        """Build the routing policy's O(1) view of the fleet."""
        if self.health is None:
            return ClusterSnapshot(
                self._healthy_indices,
                len(self.workers),
                self._healthy,
                self._in_flight,
                composition_name,
                self._composition_functions.get(composition_name, ()),
                self._warm_functions_of,
            )
        return ClusterSnapshot(
            self._healthy_indices,
            len(self.workers),
            self._healthy,
            self._in_flight,
            composition_name,
            self._composition_functions.get(composition_name, ()),
            self._warm_functions_of,
            self._preferred_indices,
            self.health.scores,
            self.health.quarantined,
        )

    def _observe_latency(self, index: int, elapsed: float) -> None:
        """Feed one completion into latency health (no-op when off)."""
        if self.health is not None and self.health.observe(index, elapsed):
            self._refresh_preferred_indices()
            if self.health.is_quarantined(index):
                self.env.call_later(
                    self.quarantine_ttl_seconds, self._end_probation, index
                )

    def _end_probation(self, index: int) -> None:
        """After the quarantine TTL, amnesty: forget the worker's
        latency history so it can rejoin and be re-judged afresh."""
        if self.health is not None and self.health.is_quarantined(index):
            self.health.reset(index)
            self._refresh_preferred_indices()

    def _pick_worker(self, composition_name: Optional[str] = None) -> Optional[int]:
        """Pick a healthy worker index, or ``None`` if the fleet is down.

        With every worker healthy each default policy consumes exactly
        the same decision stream as the pre-``repro.sched`` inline
        dispatch, so fault-free runs stay bit-identical.
        """
        if not self._healthy_indices:
            return None
        return self.routing_policy.decide(self.snapshot(composition_name))

    def invoke(self, composition_name: str, inputs: dict):
        """Route one invocation; returns an event → InvocationResult."""
        done = self.env.event()
        self.start(composition_name, inputs, done.succeed)
        return done

    def start(self, composition_name: str, inputs: dict, on_done: Callable[[InvocationResult], None]) -> None:
        """Route one invocation; ``on_done(result)`` is called with its
        outcome.  An unknown name raises here."""
        hedgeable = self._hedgeable.get(composition_name)
        if hedgeable is None:
            raise RegistryError(f"unknown composition {composition_name!r}")
        routed = _Routed(
            self, composition_name, inputs, on_done, self.hedge and hedgeable
        )
        self.env.call_later(_ROUTING_OVERHEAD_SECONDS, routed.begin)

    # -- hedged requests (gray-failure tail-latency defense) -------------------

    def _hedge_delay(self) -> Optional[float]:
        """Percentile-of-observed-latency hedge trigger, or ``None``
        until enough completions have been seen to estimate it."""
        if self.latencies.count < HEDGE_MIN_SAMPLES:
            return None
        return self.latencies.percentile(self.hedge_percentile)

    def _hedge_budget_available(self) -> bool:
        """True while issuing one more hedge keeps the hedge rate at or
        below ``hedge_budget_fraction`` of hedge-eligible traffic."""
        return (self.hedges_issued + 1) <= (
            self.hedge_budget_fraction * self._hedged_invocations
        )

    def _pick_hedge_worker(
        self, primary: int, composition_name: Optional[str]
    ) -> Optional[int]:
        """Deterministic secondary choice: least outstanding over the
        non-quarantined candidates, excluding the primary."""
        snapshot = self.snapshot(composition_name)
        best = None
        best_load = None
        for pool in (snapshot.candidates, snapshot.healthy):
            for index in pool:
                if index == primary:
                    continue
                load = self._in_flight[index]
                if best is None or load < best_load:
                    best = index
                    best_load = load
            if best is not None:
                return best
        return None

    def invoke_and_run(self, composition_name: str, inputs: dict):
        process = self.invoke(composition_name, inputs)
        return self.env.run(until=process)

    # -- telemetry ----------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "workers": len(self.workers),
            "healthy_workers": self.healthy_worker_count,
            "policy": self.policy,
            "invocations_routed": self.invocations_routed,
            "per_worker": dict(self.per_worker_invocations),
            "total_committed_bytes": sum(w.memory.current_bytes for w in self.workers),
            "peak_committed_bytes": sum(w.memory.peak_bytes for w in self.workers),
            "failures": {
                "worker_crashes": self.worker_crashes,
                "worker_restores": self.worker_restores,
                "reroutes": self.reroutes,
                "failed_invocations": self.invocations_failed,
                "per_worker_failures": dict(self.per_worker_failures),
                "per_worker_crashes": dict(self.per_worker_crashes),
            },
            "gray": {
                "limping_workers": self.limping_worker_count,
                "quarantined_workers": (
                    self.health.quarantined_count() if self.health else 0
                ),
                "quarantine_entries": (
                    self.health.quarantine_entries if self.health else 0
                ),
                "quarantine_exits": (
                    self.health.quarantine_exits if self.health else 0
                ),
                "hedges_issued": self.hedges_issued,
                "hedges_won": self.hedges_won,
                "hedge_rate": (
                    self.hedges_issued / self._hedged_invocations
                    if self._hedged_invocations
                    else 0.0
                ),
            },
        }


class _Routed:
    """Cluster-side state of one invocation: routing, crash re-route
    and, when it is hedge-eligible (pure compute, so the duplicate
    execution is idempotent, §6.1), the hedge timer and the
    first-success-wins race between its two attempts; the loser just
    burns simulated cycles, like re-execution after a crash.
    """

    __slots__ = (
        "cluster", "name", "inputs", "on_done", "hedged", "started", "reroutes",
        "primary", "primary_live", "hedge", "fallback", "fallback_index",
    )

    def __init__(self, cluster: ClusterManager, name: str, inputs: dict, on_done, hedged: bool):
        self.cluster = cluster
        self.name = name
        self.inputs = inputs
        self.on_done = on_done       # None once the outcome is delivered
        self.hedged = hedged
        self.reroutes = 0
        self.primary = -1            # worker of this round's primary attempt
        self.primary_live = False
        self.hedge = -1              # worker of the live hedge attempt, if any
        self.fallback: Optional[InvocationResult] = None
        self.fallback_index = -1

    def begin(self) -> None:
        cluster = self.cluster
        self.started = cluster.env.now
        if self.hedged:
            cluster._hedged_invocations += 1
        self._route()

    def _route(self) -> None:
        cluster = self.cluster
        index = cluster._pick_worker(self.name)
        if index is None:
            self._fail(InvocationError("no healthy workers available"))
            return
        self.primary = index
        self.primary_live = True
        self._send(index, False)
        if self.hedged and cluster._hedge_budget_available():
            delay = cluster._hedge_delay()
            if delay is not None:
                cluster.env.call_later(delay, self._hedge_due, self.reroutes)

    def _send(self, index: int, is_hedge: bool) -> None:
        """One worker-level try.  The attempt is accounted against the
        worker synchronously with the routing decision, so same-instant
        decisions see the load it adds."""
        cluster = self.cluster
        cluster._in_flight[index] += 1
        cluster.per_worker_invocations[index] += 1
        cluster.invocations_routed += 1
        cluster._crash_waiters[index][self] = None
        worker = cluster.workers[index]
        worker.frontend.start(
            self.name,
            self.inputs,
            partial(self._answered, worker, index, cluster.env.now, is_hedge),
        )

    def _hedge_due(self, round: int) -> None:
        cluster = self.cluster
        # Stale once the primary has answered or its round was
        # re-routed.  The budget is re-checked at issue time: other
        # hedged invocations may have spent it while this one waited
        # (the check in _route is only a cheap early out).
        if (
            self.on_done is None
            or round != self.reroutes
            or not cluster._hedge_budget_available()
        ):
            return
        index = cluster._pick_hedge_worker(self.primary, self.name)
        if index is not None:
            cluster.hedges_issued += 1
            self.hedge = index
            self._send(index, True)

    def _answered(self, worker: WorkerNode, index: int, attempt_started: float, is_hedge: bool, result: InvocationResult) -> None:
        cluster = self.cluster
        if cluster.workers[index] is not worker or not cluster._healthy[index]:
            return  # the worker fail-stopped under this attempt: nobody hears its reply
        if is_hedge:
            self.hedge = -1
        else:
            self.primary_live = False
        del cluster._crash_waiters[index][self]
        cluster._in_flight[index] -= 1
        # Per-attempt latency is the gray-failure signal: error
        # completions (deadline expirations on a limping node) carry it
        # just as loudly as successes.
        cluster._observe_latency(index, cluster.env.now - attempt_started)
        if self.on_done is None:
            return  # the race is over: a losing attempt only unwinds its accounting
        # First *successful* completion wins; an error completion is
        # kept as a fallback while the other attempt is still running
        # (its worker may still come through).
        if result.ok:
            if is_hedge:
                cluster.hedges_won += 1
            self._finish(result, index)
        elif self.fallback is None:
            self.fallback = result
            self.fallback_index = index
        self._settle()

    def attempt_crashed(self, index: int) -> None:
        """The worker fail-stopped under an attempt; whatever it was
        doing is lost."""
        cluster = self.cluster
        if cluster._in_flight.get(index, 0) > 0:
            cluster._in_flight[index] -= 1
        if index == self.hedge:
            self.hedge = -1
        else:
            self.primary_live = False
        self._settle()

    def _settle(self) -> None:
        """With no attempt left running and no winner: fall back to an
        error completion, else re-route to a healthy peer."""
        if self.on_done is None or self.primary_live or self.hedge >= 0:
            return
        cluster = self.cluster
        if self.fallback is not None:
            self._finish(self.fallback, self.fallback_index)
            return
        self.reroutes += 1
        if self.reroutes > MAX_REROUTES:
            self._fail(WorkerCrashed(self.primary))
            return
        cluster.reroutes += 1
        self._route()

    def _finish(self, result: InvocationResult, index: Optional[int]) -> None:
        """Deliver the outcome; ``index`` is the worker that served it,
        ``None`` when no worker did."""
        cluster = self.cluster
        elapsed = cluster.env.now - self.started
        if result.ok:
            cluster.latencies.record(elapsed)
        else:
            # Error paths are telemetry too: count them against the
            # worker that served the request and record their latency
            # separately so failures never vanish silently.
            cluster.invocations_failed += 1
            if index is not None:
                cluster.per_worker_failures[index] += 1
            cluster.failed_latencies.record(elapsed)
        on_done = self.on_done
        self.on_done = None
        on_done(result)

    def _fail(self, error: Exception) -> None:
        now = self.cluster.env.now
        self._finish(
            InvocationResult(
                invocation_id=-1, error=error, started_at=self.started, finished_at=now
            ),
            None,
        )
