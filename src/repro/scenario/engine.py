"""One code path from :class:`ScenarioSpec` to a seeded run + KPIs.

This module is the engine half of `repro.scenario`: it assembles the
cluster (worker config, routing policy, health tracker, hedging),
registers the workload, arms the fault injector, builds the seeded
request stream, drives it to completion in virtual time, and distills
the run into one :class:`~repro.scenario.kpis.KpiRecord`.

The §6.1/§6.2/§6.3 experiments and the full-scale Fig 10 replay are
thin spec-plus-rendering wrappers over :func:`run_scenario`; their
committed outputs are byte-identical to the pre-refactor hand-plumbed
versions, which pins the engine's seed conventions:

* the arrival stream comes from ``Rng(spec.trace_seed())`` — zipf
  weights are pure arithmetic and app draws use a forked stream, so a
  one-app trace consumes exactly the draws of a plain Poisson stream;
* the fail-stop/limp injector (armed iff ``faults.mttf_seconds > 0``)
  is seeded ``Rng(spec.fault_seed())`` and forks per-worker streams;
* workers and the routing policy derive their streams from
  ``spec.seed`` exactly as :class:`~repro.cluster.manager.ClusterManager`
  always has.

The one execution knob KPIs are invariant to — the ``shards``
partition count of the streamed path — is an argument of
:func:`run_scenario`, not a spec field (see docs/scenarios.md,
"Determinism contract").
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING, Optional

from ..sim.distributions import Rng
from .kpis import CORE_HOUR_USD, KpiRecord
from .spec import ScenarioSpec, SpecError, validate_names

if TYPE_CHECKING:
    from ..cluster.faults import WorkerFaultInjector
    from ..cluster.manager import ClusterManager

__all__ = [
    "ScenarioRun",
    "run_scenario",
    "assemble_cluster",
    "build_requests",
    "build_workload",
    "composition_names",
]

MiB = 1 << 20

_COMPOSITION_TEMPLATE = """
composition {comp} {{
    compute stage uses {fn} in(data) out(result);
    input data -> stage.data;
    output stage.result -> result;
}}
"""


@dataclass
class ScenarioRun:
    """Everything one engine run produced.

    ``kpis`` is the uniform deterministic record; ``cluster`` /
    ``injector`` (synthetic) and ``report`` (streamed) expose the raw
    objects for experiment wrappers that render richer tables; ``meta``
    carries wall-clock observability that must never feed rendered
    output.
    """

    spec: ScenarioSpec
    kpis: KpiRecord
    cluster: Optional[ClusterManager] = None
    injector: Optional[WorkerFaultInjector] = None
    report: object = None
    meta: dict = field(default_factory=dict)


# -- workload -----------------------------------------------------------------


def composition_names(spec: ScenarioSpec) -> list:
    """The composition name(s) the trace invokes, in app order."""
    name = spec.workload.name
    if spec.trace.apps == 1:
        return [name]
    return [f"{name}_{index}" for index in range(spec.trace.apps)]


def _function_names(spec: ScenarioSpec) -> list:
    name = spec.workload.name
    if spec.trace.apps == 1:
        return [f"{name}_fn"]
    return [f"{name}_fn_{index}" for index in range(spec.trace.apps)]


def _echo_binary(fn_name: str, compute_seconds: float, binary_bytes: int):
    from ..functions.sdk import compute_function

    kwargs = {"name": fn_name, "compute_cost": compute_seconds}
    if binary_bytes > 0:
        kwargs["binary_size"] = binary_bytes

    @compute_function(**kwargs)
    def scenario_echo(vfs):
        vfs.write_bytes("/out/result/data", vfs.read_bytes("/in/data/data"))

    return scenario_echo


def build_workload(spec: ScenarioSpec) -> list:
    """``[(function_binary, composition_dsl), ...]``, one pair per app."""
    binary_bytes = int(spec.workload.binary_mib * MiB)
    pairs = []
    for comp_name, fn_name in zip(composition_names(spec), _function_names(spec)):
        binary = _echo_binary(fn_name, spec.workload.compute_seconds,
                              binary_bytes)
        dsl = _COMPOSITION_TEMPLATE.format(comp=comp_name, fn=fn_name)
        pairs.append((binary, dsl))
    return pairs


# -- assembly -----------------------------------------------------------------


def _raise_on_unknown_names(spec: ScenarioSpec) -> None:
    problems = validate_names(spec)
    if problems:
        raise SpecError("; ".join(message for _code, message in problems))


def assemble_cluster(spec: ScenarioSpec):
    """Spec → (cluster, injector-or-None), workload registered.

    The injector is armed iff ``faults.mttf_seconds > 0``; limp cycles
    ride the same injector (§6.3 disables crashes with an astronomical
    MTTF rather than a second injector).
    """
    # Imported here so that a streamed replay never loads the worker node.
    from ..cluster.faults import WorkerFaultInjector
    from ..cluster.manager import ClusterManager
    from ..worker import WorkerConfig

    _raise_on_unknown_names(spec)
    config = WorkerConfig(
        total_cores=spec.fleet.cores,
        backend=spec.fleet.backend,
        machine=spec.fleet.machine,
        control_plane_enabled=spec.sched.cores == "pi",
        transient_failure_rate=spec.faults.transient_rate,
        max_retries=spec.faults.max_retries,
        default_timeout=spec.faults.deadline_seconds,
        seed=spec.seed,
    )
    cluster = ClusterManager(
        worker_count=spec.fleet.workers,
        worker_config=config,
        policy=spec.sched.routing,
        seed=spec.seed,
        latency_health=spec.sched.latency_health,
        quarantine_ttl_seconds=spec.sched.quarantine_ttl_seconds,
        hedge=spec.sched.hedge,
        hedge_percentile=spec.sched.hedge_percentile,
        hedge_budget_fraction=spec.sched.hedge_budget_fraction,
    )
    for binary, dsl in build_workload(spec):
        cluster.register_function(binary)
        cluster.register_composition(dsl)
    injector = None
    if spec.faults.mttf_seconds > 0:
        injector = WorkerFaultInjector(
            cluster,
            mttf_seconds=spec.faults.mttf_seconds,
            mttr_seconds=spec.faults.mttr_seconds,
            seed=spec.fault_seed(),
            limp_mttf_seconds=spec.faults.limp_mttf_seconds,
            limp_duration_seconds=spec.faults.limp_duration_seconds,
            limp_severity=spec.faults.limp_severity,
        )
    return cluster, injector


# -- trace --------------------------------------------------------------------


def build_requests(spec: ScenarioSpec) -> list:
    """Deterministic ``[(arrival_seconds, app_index), ...]`` stream.

    Single-app traces consume exactly the draws of a plain Poisson
    stream; multi-app traces additionally draw each request's app from
    a *forked* stream against Zipf popularity weights (pure arithmetic,
    no draws), so the arrival times are identical either way.
    """
    trace_seed = spec.trace_seed()
    rps = spec.offered_rps()
    duration = spec.trace.duration_seconds
    arrival_rng = Rng(trace_seed)
    apps = spec.trace.apps
    if apps == 1:
        return [(t, 0) for t in arrival_rng.poisson_arrivals(rps, duration)]
    app_rng = Rng(trace_seed).fork(1)
    weights = arrival_rng.zipf_weights(apps, spec.trace.zipf_skew)
    cumulative = list(accumulate(weights))
    # The app is the first whose cumulative edge is >= the draw.
    return [
        (arrive_at, bisect_left(cumulative, app_rng.uniform()))
        for arrive_at in arrival_rng.poisson_arrivals(rps, duration)
    ]


def _tally(counts: list, drained, result) -> None:
    """One driven request finished; ``counts`` is [outstanding, completed]."""
    counts[0] -= 1
    counts[1] += result.ok
    if not counts[0]:
        drained.succeed()


def _drive(cluster: ClusterManager, spec: ScenarioSpec, requests: list):
    """Run the request stream to completion; returns (offered, completed).

    The arrivals go to the kernel as one ``call_at_each`` schedule, so
    only the next one waits on the heap and its depth follows the work
    in flight, not the length of the trace.
    """
    if not requests:
        return 0, 0
    env = cluster.env
    names = composition_names(spec)
    inputs = {"data": spec.workload.payload.encode("utf-8")}
    counts = [len(requests), 0]
    drained = env.event()
    on_done = partial(_tally, counts, drained)
    now = env.now
    env.call_at_each(cluster.start, [
        (now + max(arrive_at - now, 0.0), (names[app], inputs, on_done))
        for arrive_at, app in requests
    ])
    env.run(until=drained)
    return len(requests), counts[1]


# -- KPIs ---------------------------------------------------------------------


def _fleet_cost_usd(workers: int, cores: int, duration_seconds: float) -> float:
    return workers * cores * duration_seconds / 3600.0 * CORE_HOUR_USD


def _imbalance(cluster: ClusterManager) -> float:
    counts = [
        cluster.per_worker_invocations[i] for i in range(len(cluster.workers))
    ]
    total = sum(counts)
    if not counts or total == 0:
        return float("nan")
    return max(counts) / (total / len(counts))


def _cluster_kpis(spec, cluster, injector, offered, completed) -> KpiRecord:
    duration = spec.trace.duration_seconds
    stats = cluster.stats()
    failures, gray = stats["failures"], stats["gray"]
    have_latencies = len(cluster.latencies) > 0
    nan = float("nan")
    busy_core_seconds = completed * spec.workload.compute_seconds
    capacity = spec.fleet.workers * spec.fleet.cores * duration
    return KpiRecord(
        scenario=spec.name,
        seed=spec.seed,
        spec_digest=spec.digest(),
        offered=offered,
        completed=completed,
        duration_seconds=duration,
        goodput_rps=completed / duration,
        success_pct=100.0 * completed / offered if offered else 100.0,
        p50_ms=cluster.latencies.median * 1e3 if have_latencies else nan,
        p95_ms=cluster.latencies.percentile(95) * 1e3 if have_latencies else nan,
        p99_ms=cluster.latencies.p99 * 1e3 if have_latencies else nan,
        utilization=busy_core_seconds / capacity,
        imbalance=_imbalance(cluster),
        cost_usd=_fleet_cost_usd(spec.fleet.workers, spec.fleet.cores, duration),
        counters={
            "retries": sum(
                worker.dispatcher.retries_performed
                for worker in cluster.workers
            ),
            "reroutes": failures["reroutes"],
            "crashes": failures["worker_crashes"],
            "failed": failures["failed_invocations"],
            "limps": injector.limps_injected if injector is not None else 0,
            "quarantines": gray["quarantine_entries"],
            "hedges": gray["hedges_issued"],
            "hedge_rate_pct": 100.0 * gray["hedge_rate"],
        },
    )


def _report_kpis(spec, report) -> KpiRecord:
    duration = spec.trace.duration_seconds
    nan = float("nan")
    have_latencies = bool(report.latencies)
    return KpiRecord(
        scenario=spec.name,
        seed=spec.seed,
        spec_digest=spec.digest(),
        offered=report.routed,
        completed=report.completed,
        duration_seconds=duration,
        goodput_rps=report.completed / duration,
        success_pct=(
            100.0 * report.completed / report.routed if report.routed else 100.0
        ),
        p50_ms=report.latency_percentile(50) * 1e3 if have_latencies else nan,
        p95_ms=report.latency_percentile(95) * 1e3 if have_latencies else nan,
        p99_ms=report.latency_percentile(99) * 1e3 if have_latencies else nan,
        utilization=nan,
        imbalance=nan,
        cost_usd=_fleet_cost_usd(spec.fleet.workers, spec.fleet.cores, duration),
        counters={
            "retries": 0, "reroutes": 0, "crashes": 0, "failed": 0,
            "limps": 0, "quarantines": 0, "hedges": 0, "hedge_rate_pct": 0.0,
        },
        extras={
            "committed_mean_mib": report.committed_mean_bytes / MiB,
            "active_mean_mib": (
                report.active_mean_bytes / MiB
                if report.active_mean_bytes is not None
                else report.committed_mean_bytes / MiB
            ),
            "cold_starts": float(report.cold_starts),
            "cold_fraction": (
                report.cold_starts / report.completed
                if report.completed else 0.0
            ),
            "windows": float(report.windows),
        },
    )


# -- entry point --------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    *,
    shards: int = 1,
    executor: str = "serial",
) -> ScenarioRun:
    """Run one spec to completion, seeded; returns a :class:`ScenarioRun`.

    ``shards`` only applies to streamed traces and cannot change the
    KPIs (the sharded simulator's invariance contract, which tests and
    ``perf --check`` assert by passing 2) — which is why it is a call
    argument rather than a spec field.
    """
    # Benchmark-pinned remnant: perf/workloads.py passes
    # executor="serial".  Nothing reads it; a later `benchmark` PR drops
    # the argument there and here.
    if executor != "serial":
        raise SpecError(
            f"executor {executor!r}: only 'serial' remains (the replay "
            "runs in one process)"
        )
    spec.check()
    if spec.trace.kind == "streamed":
        return _run_streamed(spec, shards)
    cluster, injector = assemble_cluster(spec)
    requests = build_requests(spec)
    offered, completed = _drive(cluster, spec, requests)
    kpis = _cluster_kpis(spec, cluster, injector, offered, completed)
    return ScenarioRun(
        spec=spec, kpis=kpis, cluster=cluster, injector=injector
    )


# The last streamed trace, kept for the next arm of the same spec:
# ``(weak reference to its TraceSpec, trace seed, StreamedTrace)``.
_shared_trace = None


def _forget_trace(section_ref) -> None:
    """The trace section died: no later spec can reuse its columns."""
    global _shared_trace
    if _shared_trace is not None and _shared_trace[0] is section_ref:
        _shared_trace = None


def _trace_for(spec: ScenarioSpec):
    global _shared_trace
    from ..trace.stream import streamed_trace

    seed = spec.trace_seed()
    if _shared_trace is not None:
        section_ref, shared_seed, trace = _shared_trace
        if section_ref() is spec.trace and shared_seed == seed:
            return trace
    # Replacing the entry drops the old columns before the new trace
    # draws its own, on its first window.
    trace = streamed_trace(
        function_count=round(spec.trace.functions_base * spec.trace.scale),
        duration_seconds=spec.trace.duration_seconds,
        total_rps=spec.trace.rps_base * spec.trace.scale,
        seed=seed,
    )
    _shared_trace = (weakref.ref(spec.trace, _forget_trace), seed, trace)
    return trace


def _run_streamed(spec: ScenarioSpec, shards: int):
    """Replay the spec's streamed trace through the sharded simulator.

    The trace is drawn once per ``TraceSpec`` *object*: one entry,
    keyed by the identity of ``spec.trace`` with the trace seed checked,
    held while that section lives.  Arms that ``with_overrides`` derives
    from one spec on ``fleet``, ``sched`` or the platform share that
    section, so a platform comparison (``fig10full``, a ``scenario
    sweep --axis platform=…``) replays one draw.  Overriding a trace
    field, the seed or anything ``trace_seed()`` reads, or loading the
    spec again, draws afresh.  The key is identity, not value: a
    benchmark keeps one repetition's runs, and with them their spec,
    alive while the next repetition runs, and a value-keyed cache would
    carry that repetition's draws into the next one and report as free
    a cost that every separate run pays.
    """
    from ..sim.sharded import ShardedConfig, run_sharded_replay

    _raise_on_unknown_names(spec)
    trace = _trace_for(spec)
    config = ShardedConfig(
        workers=spec.fleet.workers,
        cores_per_worker=spec.fleet.cores,
        shards=shards,
        window_seconds=spec.trace.window_seconds,
        platform=spec.fleet.platform,
        policy=spec.sched.routing,
        seed=spec.seed,
    )
    report = run_sharded_replay(trace, config)
    kpis = _report_kpis(spec, report)
    return ScenarioRun(
        spec=spec,
        kpis=kpis,
        report=report,
        meta={"function_count": trace.function_count},
    )
