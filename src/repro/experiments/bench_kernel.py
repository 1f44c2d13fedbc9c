"""Simulation-kernel performance benchmark (``python -m repro bench``).

Times the hot paths every experiment flows through — raw event
scheduling, the virtual-time processor-sharing CPU, process chains —
plus the dispatcher data plane (accounting-first ``store_sets``,
zero-copy ``transfer_to``, the strict output parser, and the
end-to-end sim-step cost of one dispatcher invocation, grouped under
``dispatcher_data_plane``) and a reduced Fig 5 sweep as an end-to-end
proxy.  The numbers land in ``BENCH_sim_kernel.json`` so future
changes have a trajectory to regress against.

The JSON also carries the recorded before/after wall-clock of the full
``run_fig05()`` sweep across the virtual-time PS rewrite (the O(n)
per-membership rescan made loaded baselines O(n²) in queued jobs);
re-measure with ``--full`` to append a fresh number on your machine.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Callable

from ..sim.core import Environment
from ..sim.cpu import ProcessorSharingCpu

__all__ = ["run_bench", "BENCH_GROUPS", "DEFAULT_OUTPUT", "REFERENCE"]

DEFAULT_OUTPUT = "BENCH_sim_kernel.json"

# Wall-clock of the full Fig 5 sweep (9 systems, 11-rate sweep, 1 s
# duration) measured on the development machine before and after the
# virtual-time PS + kernel fast-path rewrite.  "profiled" is under
# cProfile, which is how the hot spots were attributed.
REFERENCE = {
    "fig05_full_seconds": {"pre_virtual_time": 53.5, "post_virtual_time": 6.3},
    "fig05_full_profiled_seconds": {"pre_virtual_time": 213.8, "post_virtual_time": 17.1},
    "machine": "Linux x86_64 dev container, CPython 3.11",
}


def _timed(fn: Callable[[], int]) -> dict:
    """Run ``fn`` once; it returns an operation count."""
    start = time.perf_counter()
    operations = fn()
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "operations": operations,
        "ops_per_second": round(operations / elapsed) if elapsed > 0 else None,
    }


def bench_timeout_churn(count: int = 200_000) -> int:
    """Raw event-loop throughput: schedule and drain plain timeouts."""
    env = Environment()

    def ticker(n):
        for _ in range(n):
            yield env.timeout(0.001)

    env.process(ticker(count))
    env.run()
    return count


def bench_process_spawn(count: int = 50_000) -> int:
    """Process creation + completion (Initialize/StopIteration path)."""
    env = Environment()

    def child():
        yield env.timeout(0.001)
        return 1

    def parent(n):
        for _ in range(n):
            yield env.process(child())

    env.process(parent(count))
    env.run()
    return count


def bench_ps_cpu_loaded(jobs: int = 20_000, cores: int = 4) -> int:
    """The previously quadratic path: a heavily oversubscribed PS CPU.

    Open-loop arrivals outpace service so the run queue grows into the
    thousands; before the virtual-time rewrite each arrival rescanned
    every queued job.
    """
    env = Environment()
    cpu = ProcessorSharingCpu(env, cores, switch_overhead_seconds=5e-6)

    def submitter(index):
        yield env.timeout(1e-4 * index)
        yield cpu.consume(1e-3)

    for index in range(jobs):
        env.process(submitter(index))
    env.run()
    assert cpu.jobs_completed == jobs
    return jobs


def bench_store_sets(count: int = 50_000) -> dict:
    """Accounting-first store throughput: N stores into fresh contexts.

    Each iteration charges a context for a two-set payload without
    materializing the blob — the dispatcher's per-invocation hot path.
    """
    from ..data.context import MemoryContext, serialized_size
    from ..data.items import DataItem, DataSet

    sets = [
        DataSet("input", [DataItem("request", b"x" * 512)]),
        DataSet("config", [DataItem(f"k{i}", b"y" * 64) for i in range(8)]),
    ]
    size = serialized_size(sets)
    start = time.perf_counter()
    for _ in range(count):
        context = MemoryContext(capacity=1 << 20)
        context.store_sets(sets)
        context.free()
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "operations": count,
        "ops_per_second": round(count / elapsed) if elapsed > 0 else None,
        "bytes_per_op": size,
        "accounted_bytes_per_second": round(count * size / elapsed) if elapsed > 0 else None,
    }


def bench_store_sets_lazy_passthrough(count: int = 20_000) -> dict:
    """Re-encoding unmodified lazy views: the splice fast path.

    Parses a representative blob once, then re-serializes the lazy set
    views ``count`` times — the store-back-what-you-loaded pattern the
    dispatcher hits when a function forwards sets untouched.  The fast
    path splices each set's byte range from the source blob (one slice
    per set, zero item decodes), so throughput should sit near memcpy
    speed; a regression to per-item re-encoding is roughly an order of
    magnitude.
    """
    from ..data.context import serialize_sets
    from ..data.lazy import parse_sets_lazy

    blob = _parse_bench_blob()
    sets = parse_sets_lazy(blob)
    assert serialize_sets(sets) == blob  # splice must be byte-faithful

    def run() -> int:
        for _ in range(count):
            serialize_sets(sets)
        return count

    return _with_throughput(_timed(run), len(blob))


def bench_transfer_to(count: int = 20_000, payload: int = 64 * 1024) -> dict:
    """Context-to-context moves via the zero-copy read view.

    The source materializes once; every transfer then costs one copy
    into the destination (memoryview source), so throughput should sit
    near memcpy speed rather than half of it.
    """
    from ..data.context import MemoryContext

    source = MemoryContext(capacity=payload * 2)
    source.write(0, b"z" * payload)
    destination = MemoryContext(capacity=payload * 2)
    start = time.perf_counter()
    for _ in range(count):
        source.transfer_to(destination, 0, 0, payload)
    elapsed = time.perf_counter() - start
    moved = count * payload
    return {
        "seconds": round(elapsed, 4),
        "operations": count,
        "bytes_per_op": payload,
        "bytes_per_second": round(moved / elapsed) if elapsed > 0 else None,
    }


def _parse_bench_blob(items: int = 16, payload: int = 256) -> bytes:
    """A representative response blob with seeded payload bytes."""
    import random

    from ..data.context import serialize_sets
    from ..data.items import DataItem, DataSet

    rng = random.Random(0x5EED)
    return serialize_sets(
        [
            DataSet(
                "response",
                [
                    DataItem(f"item{i}", rng.randbytes(payload), key=f"key{i % 4}")
                    for i in range(items)
                ],
            )
        ]
    )


def _with_throughput(numbers: dict, bytes_per_op: int) -> dict:
    numbers["bytes_per_op"] = bytes_per_op
    ops = numbers.get("ops_per_second")
    numbers["bytes_per_second"] = ops * bytes_per_op if ops else None
    return numbers


def bench_parse_sets(count: int = 20_000) -> dict:
    """Strict output-parser throughput over a representative blob.

    This is the validation/debug codec: it decodes every record *and*
    cross-checks the v2 footer, so it is the upper bound on parse cost.
    """
    from ..data.context import parse_sets

    blob = _parse_bench_blob()

    def run() -> int:
        for _ in range(count):
            parse_sets(blob)
        return count

    return _with_throughput(_timed(run), len(blob))


def bench_parse_sets_lazy_index(count: int = 20_000) -> dict:
    """Zero-parse indexing: footer read only, no record ever decoded.

    This is what ``MemoryContext.load_sets`` costs when a consumer
    routes a set without inspecting it — the common dispatcher case.
    """
    from ..data.lazy import parse_sets_lazy

    blob = _parse_bench_blob()

    def run() -> int:
        for _ in range(count):
            parse_sets_lazy(blob)
        return count

    return _with_throughput(_timed(run), len(blob))


def bench_parse_sets_lazy_full_touch(count: int = 20_000) -> dict:
    """Lazy views with every payload materialized (worst case).

    Upper bound for a consumer that reads every item: index build plus
    per-item header decode plus one payload copy each.
    """
    from ..data.lazy import parse_sets_lazy

    blob = _parse_bench_blob()

    def run() -> int:
        for _ in range(count):
            for data_set in parse_sets_lazy(blob):
                for item in data_set:
                    item.data
        return count

    return _with_throughput(_timed(run), len(blob))


def bench_dispatcher_single_request(count: int = 500) -> dict:
    """End-to-end dispatcher cost of one single-node invocation.

    Reports wall-clock *and* simulation steps (scheduled events) per
    invocation — the sim-step count is deterministic, so it regresses
    loudly when the per-invocation fast path picks up extra event churn.
    """
    from ..functions import compute_function
    from ..worker import WorkerConfig, WorkerNode

    @compute_function(compute_cost=1e-5, name="bench_echo")
    def bench_echo(vfs):
        data = vfs.read_bytes("/in/input/request")
        vfs.write_bytes("/out/result/reply", data)

    worker = WorkerNode(WorkerConfig(total_cores=2, control_plane_enabled=False))
    worker.frontend.register_function(bench_echo)
    worker.frontend.register_composition(
        """
        composition bench_single {
            compute echo uses bench_echo in(input) out(result);
            input input -> echo.input;
            output echo.result -> result;
        }
        """
    )
    # Warm one invocation so registry/plan compilation is out of the loop.
    worker.invoke_and_run("bench_single", {"input": b"ping"})
    steps_before = worker.env._seq
    start = time.perf_counter()
    for _ in range(count):
        worker.invoke_and_run("bench_single", {"input": b"ping"})
    elapsed = time.perf_counter() - start
    steps = worker.env._seq - steps_before
    return {
        "seconds": round(elapsed, 4),
        "operations": count,
        "ops_per_second": round(count / elapsed) if elapsed > 0 else None,
        "sim_steps_per_invocation": round(steps / count, 1),
    }


def bench_retry_backoff(count: int = 300) -> dict:
    """Retry/backoff hot path: transient faults force re-submissions.

    Every invocation runs under ``transient_failure_rate=0.5`` so the
    dispatcher's backoff loop (fresh completion events, jittered
    ``env.timeout`` waits, re-drawn binary cache) dominates.  Reports
    retries per invocation alongside throughput so regressions in the
    retry machinery itself — not just the happy path — are visible.
    """
    from ..functions import compute_function
    from ..worker import WorkerConfig, WorkerNode

    @compute_function(compute_cost=1e-5, name="bench_flaky_echo")
    def bench_flaky_echo(vfs):
        vfs.write_bytes("/out/result/reply", vfs.read_bytes("/in/input/request"))

    worker = WorkerNode(
        WorkerConfig(
            total_cores=2,
            control_plane_enabled=False,
            transient_failure_rate=0.5,
            max_retries=8,
            seed=13,
        )
    )
    worker.frontend.register_function(bench_flaky_echo)
    worker.frontend.register_composition(
        """
        composition bench_flaky {
            compute echo uses bench_flaky_echo in(input) out(result);
            input input -> echo.input;
            output echo.result -> result;
        }
        """
    )
    worker.invoke_and_run("bench_flaky", {"input": b"ping"})  # warm-up
    retries_before = worker.dispatcher.retries_performed
    start = time.perf_counter()
    for _ in range(count):
        worker.invoke_and_run("bench_flaky", {"input": b"ping"})
    elapsed = time.perf_counter() - start
    retries = worker.dispatcher.retries_performed - retries_before
    return {
        "seconds": round(elapsed, 4),
        "operations": count,
        "ops_per_second": round(count / elapsed) if elapsed > 0 else None,
        "retries_per_invocation": round(retries / count, 2),
    }


def bench_health_observe(count: int = 200_000) -> dict:
    """Latency health tracker fold: one ``observe`` per completion.

    The gray-failure detector sits on every cluster completion, so its
    per-sample cost must stay O(1) dict work — no rescans, no sorting.
    The stream alternates a slow worker in so quarantine flips (the
    only non-O(1) edge, rare by hysteresis) are exercised too.
    """
    from ..cluster.health import LatencyHealthTracker

    tracker = LatencyHealthTracker()
    workers = 16
    start = time.perf_counter()
    for step in range(count):
        index = step % workers
        latency = 10e-3 if index == 0 and (step // workers) % 64 < 32 else 1e-3
        tracker.observe(index, latency)
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "operations": count,
        "ops_per_second": round(count / elapsed) if elapsed > 0 else None,
        "quarantine_flips": tracker.quarantine_entries + tracker.quarantine_exits,
    }


def bench_gray_cluster_invocation(count: int = 300) -> dict:
    """End-to-end routed invocations with the full gray-failure stack on.

    Latency health + gray policy + hedging against a 3-worker fleet
    with one limping worker: the per-invocation overhead of the EWMA
    fold, the preferred-ring snapshot, and the hedge bookkeeping all
    land on this path.  Compare against ``cluster_routed_invocation``
    (scheduling group) for the health-off baseline.
    """
    from ..cluster.manager import ClusterManager
    from ..functions import compute_function
    from ..worker import WorkerConfig

    # Compute-dominated (1 ms vs ~an order less of fixed overhead) so
    # the 8x limp is actually visible to the latency detector.
    @compute_function(compute_cost=1e-3, name="bench_gray_echo")
    def bench_gray_echo(vfs):
        vfs.write_bytes("/out/result/reply", vfs.read_bytes("/in/input/request"))

    cluster = ClusterManager(
        worker_count=3,
        worker_config=WorkerConfig(
            total_cores=2, control_plane_enabled=False, seed=13
        ),
        policy="gray",
        latency_health=True,
        hedge=True,
        hedge_min_samples=10,
        seed=13,
    )
    cluster.register_function(bench_gray_echo)
    cluster.register_composition(
        """
        composition bench_gray {
            compute echo uses bench_gray_echo in(input) out(result);
            input input -> echo.input;
            output echo.result -> result;
        }
        """
    )
    cluster.limp_worker(0, 8.0)
    env = cluster.env

    def one():
        yield cluster.invoke("bench_gray", {"input": b"ping"})

    def batch(width):
        processes = [env.process(one()) for _ in range(width)]
        env.run(until=env.all_of(processes))

    batch(3)  # warm-up
    start = time.perf_counter()
    # Batches of 3 keep all workers in play (serial invocations would
    # tie-break to one worker and never feed the peer baseline).
    for _ in range(count // 3):
        batch(3)
    elapsed = time.perf_counter() - start
    gray = cluster.stats()["gray"]
    return {
        "seconds": round(elapsed, 4),
        "operations": count,
        "ops_per_second": round(count / elapsed) if elapsed > 0 else None,
        "quarantine_entries": gray["quarantine_entries"],
        "hedges_issued": gray["hedges_issued"],
    }


def bench_policy_decisions(count: int = 50_000) -> dict:
    """Routing-policy decision throughput over a fixed fleet snapshot.

    Every registered policy decides ``count`` times against the same
    16-worker view (mixed load, partial warmth), so the numbers compare
    the *policies*, not snapshot construction.  Decisions are the
    per-invocation cost of the cluster manager's routing hop, so a slow
    policy taxes every experiment in §5/§6.
    """
    from ..sched.routing import ROUTING_POLICIES
    from ..sched.snapshots import ClusterSnapshot
    from ..sim.distributions import Rng

    workers = 16
    healthy = tuple(range(workers))
    health = {index: True for index in range(workers)}
    in_flight = {index: (index * 7) % 5 for index in range(workers)}
    warm = [
        {"sched_f0", "sched_f1"} if index % 3 == 0 else set()
        for index in range(workers)
    ]
    snapshot = ClusterSnapshot(
        healthy,
        workers,
        health,
        in_flight,
        "sched_bench",
        ("sched_f0", "sched_f1"),
        lambda index: warm[index],
    )
    results = {}
    for name, cls in ROUTING_POLICIES.items():
        policy = cls.build(Rng(7))
        start = time.perf_counter()
        for _ in range(count):
            policy.decide(snapshot)
        elapsed = time.perf_counter() - start
        results[name] = {
            "seconds": round(elapsed, 4),
            "operations": count,
            "ops_per_second": round(count / elapsed) if elapsed > 0 else None,
        }
    return results


def bench_snapshot_build(count: int = 100_000) -> dict:
    """ClusterSnapshot construction on a live 8-worker cluster.

    The snapshot is the routing fast path's only allocation; it must
    stay O(1) regardless of fleet size or registration count.
    """
    from ..cluster.manager import ClusterManager
    from ..worker import WorkerConfig

    cluster = ClusterManager(
        worker_count=8,
        worker_config=WorkerConfig(total_cores=2, control_plane_enabled=False),
    )
    start = time.perf_counter()
    for _ in range(count):
        cluster.snapshot("sched_bench")
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "operations": count,
        "ops_per_second": round(count / elapsed) if elapsed > 0 else None,
    }


def bench_cluster_routed_invocation(count: int = 500) -> dict:
    """End-to-end cost of one invocation routed through the cluster.

    The cluster analogue of ``dispatcher_single_request``: reports
    wall-clock and deterministic sim-steps per invocation, so routing
    refactors that add event churn (or per-invocation fleet scans)
    regress loudly.
    """
    from ..cluster.manager import ClusterManager
    from ..functions import compute_function
    from ..worker import WorkerConfig

    @compute_function(compute_cost=1e-5, name="bench_cluster_echo")
    def bench_cluster_echo(vfs):
        vfs.write_bytes("/out/result/reply", vfs.read_bytes("/in/input/request"))

    cluster = ClusterManager(
        worker_count=4,
        worker_config=WorkerConfig(total_cores=2, control_plane_enabled=False),
        policy="least_loaded",
    )
    cluster.register_function(bench_cluster_echo)
    cluster.register_composition(
        """
        composition bench_cluster_single {
            compute echo uses bench_cluster_echo in(input) out(result);
            input input -> echo.input;
            output echo.result -> result;
        }
        """
    )
    cluster.invoke_and_run("bench_cluster_single", {"input": b"ping"})  # warm-up
    steps_before = cluster.env._seq
    start = time.perf_counter()
    for _ in range(count):
        cluster.invoke_and_run("bench_cluster_single", {"input": b"ping"})
    elapsed = time.perf_counter() - start
    steps = cluster.env._seq - steps_before
    return {
        "seconds": round(elapsed, 4),
        "operations": count,
        "ops_per_second": round(count / elapsed) if elapsed > 0 else None,
        "sim_steps_per_invocation": round(steps / count, 1),
    }


def bench_fig05_reduced() -> float:
    """End-to-end proxy: 3 systems × 3 rates, 0.2 s duration."""
    from .fig05_creation_throughput import run_fig05

    start = time.perf_counter()
    run_fig05(
        systems=("dandelion-kvm", "wasmtime", "firecracker-snapshot"),
        rates=(200, 1000, 4000),
        duration_seconds=0.2,
    )
    return time.perf_counter() - start


def bench_purity_verification(rounds: int = 25) -> dict:
    """Static purity verification over the full demo registry.

    ``operations`` counts verified functions; a slow verifier would make
    strict registration (and the CI lint job) painful.
    """
    from ..analysis.purity_check import verify_purity
    from ..analysis.runner import demo_registry

    registry = demo_registry()

    def run() -> int:
        verified = 0
        for _ in range(rounds):
            for name in registry.function_names:
                verify_purity(registry.function(name))
                verified += 1
        return verified

    return _timed(run)


def bench_self_lint() -> dict:
    """One determinism self-lint sweep over src/repro (wall time)."""
    from ..analysis.determinism_lint import lint_self

    def run() -> int:
        return len(lint_self())

    numbers = _timed(run)
    numbers["findings"] = numbers.pop("operations")
    numbers.pop("ops_per_second", None)
    return numbers


def bench_dataflow_corpus(rounds: int = 5) -> dict:
    """Whole-composition dataflow analysis over the violation corpus.

    ``operations`` counts analyzed compositions (corpus entries ×
    rounds); registry construction and function purity summaries are
    warm before the timer starts, so this measures the analyzer itself
    (graph facts, reachability, rule sweep, cost model).
    """
    from ..analysis.dataflow_corpus import CORPUS, analyze_entry, build_registry

    registry = build_registry()
    for entry in CORPUS:  # prime purity summaries / parse caches
        analyze_entry(entry, registry)

    def run() -> int:
        analyzed = 0
        for _ in range(rounds):
            for entry in CORPUS:
                analyze_entry(entry, registry)
                analyzed += 1
        return analyzed

    return _timed(run)


def bench_lint_incremental_warm() -> dict:
    """Cold vs cache-warm full lint (all four passes, demo registry).

    The warm run replays fingerprint-matched results from the analysis
    cache instead of re-parsing/re-verifying; CI gates the speedup at
    10× so a cache regression (bad fingerprint, dropped entry) fails
    the perf-smoke job rather than silently slowing every re-lint.
    """
    import os
    import tempfile

    from ..analysis.cache import AnalysisCache
    from ..analysis.runner import collect_diagnostics, demo_registry

    registry = demo_registry()
    handle, path = tempfile.mkstemp(suffix=".json", prefix="repro_lint_cache_")
    os.close(handle)
    try:
        cache = AnalysisCache(path)
        start = time.perf_counter()
        cold_findings = collect_diagnostics(
            lint_dataflow=True, registry=registry, cache=cache
        )
        cold = time.perf_counter() - start
        cache.save()
        warm_cache = AnalysisCache(path)
        start = time.perf_counter()
        warm_findings = collect_diagnostics(
            lint_dataflow=True, registry=registry, cache=warm_cache
        )
        warm = time.perf_counter() - start
    finally:
        os.unlink(path)
    if len(cold_findings) != len(warm_findings):
        raise RuntimeError(
            f"cache replay changed findings: {len(cold_findings)} cold "
            f"vs {len(warm_findings)} warm"
        )
    return {
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "warm_speedup": round(cold / warm, 1) if warm > 0 else None,
        "findings": len(cold_findings),
        "cache_entries": len(warm_cache),
    }


def bench_spec_parse(count: int = 2_000) -> dict:
    """Scenario-spec TOML parse + schema validation throughput.

    Parses the bundled §6.2 spec (the busiest schema: every section
    populated) ``count`` times; a slow parser would make sweeps and the
    SCN lint pass drag on spec-heavy repos.
    """
    from ..scenario.spec import bundled_specs, scenario_from_toml

    with open(bundled_specs()["sec62"], "r", encoding="utf-8") as handle:
        text = handle.read()

    def run() -> int:
        for _ in range(count):
            scenario_from_toml(text)
        return count

    return _timed(run)


def bench_scenario_assembly(count: int = 100) -> dict:
    """Scenario-engine assembly overhead: spec → cluster + injector.

    Builds the full §6.1 topology (fleet, registered workload,
    dispatcher, fault injector) per operation — the fixed cost every
    sweep arm pays before its first simulated event.
    """
    from ..scenario.engine import assemble_cluster
    from ..scenario.spec import load_spec

    spec = load_spec("sec61")

    def run() -> int:
        for _ in range(count):
            assemble_cluster(spec)
        return count

    return _timed(run)


def bench_fig05_full() -> float:
    from .fig05_creation_throughput import run_fig05

    start = time.perf_counter()
    run_fig05()
    return time.perf_counter() - start


def _bench_trace_scale_group() -> dict:
    """Sharded replay wall clock at 10× trace scale.

    Delegates to :mod:`.bench_trace_scale`, which also refreshes
    ``BENCH_trace_scale.json`` (its own gated report).
    """
    from .bench_trace_scale import DEFAULT_OUTPUT as TRACE_SCALE_OUTPUT
    from .bench_trace_scale import run_trace_scale_bench

    report = run_trace_scale_bench(scales=(10.0,), output=TRACE_SCALE_OUTPUT)
    matrix = report["measured"]["scale_10x"]
    return {
        f"sharded_lean_{row['shards']}_{row['executor']}": {
            "seconds": row["wall_seconds"],
            "operations": row["invocations"],
            "ops_per_second": row["events_per_second"],
        }
        for row in (matrix["rows"][0], matrix["rows"][-1])
    }


# Group name -> thunk; ``--only <group>`` picks a subset (the CI
# perf-smoke job runs just the gated groups instead of the full suite).
BENCH_GROUPS: "dict[str, Callable[[], dict]]" = {
    "timeout_churn_200k": lambda: _timed(bench_timeout_churn),
    "process_spawn_50k": lambda: _timed(bench_process_spawn),
    "ps_cpu_loaded_20k_jobs_4_cores": lambda: _timed(bench_ps_cpu_loaded),
    "dispatcher_data_plane": lambda: {
        "store_sets_50k": bench_store_sets(),
        "store_sets_lazy_passthrough_20k": bench_store_sets_lazy_passthrough(),
        "transfer_to_20k_64KiB": bench_transfer_to(),
        "parse_sets_20k": bench_parse_sets(),
        "parse_sets_lazy_index": bench_parse_sets_lazy_index(),
        "parse_sets_lazy_full_touch": bench_parse_sets_lazy_full_touch(),
        "dispatcher_single_request_500": bench_dispatcher_single_request(),
    },
    "fault_tolerance": lambda: {
        "retry_backoff_300": bench_retry_backoff(),
        "health_observe_200k": bench_health_observe(),
        "gray_cluster_invocation_300": bench_gray_cluster_invocation(),
    },
    "scheduling": lambda: {
        "policy_decisions_50k": bench_policy_decisions(),
        "snapshot_build_100k": bench_snapshot_build(),
        "cluster_routed_invocation_500": bench_cluster_routed_invocation(),
    },
    "static_analysis": lambda: {
        "purity_verification_25x": bench_purity_verification(),
        "self_lint_sweep": bench_self_lint(),
        "dataflow_analyze_corpus": bench_dataflow_corpus(),
        "lint_incremental_warm": bench_lint_incremental_warm(),
    },
    "scenario": lambda: {
        "spec_parse_validate_2k": bench_spec_parse(),
        "engine_assembly_100": bench_scenario_assembly(),
    },
    "fig05_reduced": lambda: {"seconds": round(bench_fig05_reduced(), 4)},
    "trace_scale": _bench_trace_scale_group,
}


def run_bench(
    full: bool = False,
    output: str | None = DEFAULT_OUTPUT,
    only: "list[str] | None" = None,
) -> dict:
    """Run the kernel benchmark suite; optionally write ``output``.

    ``only`` restricts the run to the named top-level groups (see
    :data:`BENCH_GROUPS`); unknown names raise ``KeyError`` so a typo
    in a CI job fails loudly instead of silently benchmarking nothing.
    """
    if only:
        unknown = [name for name in only if name not in BENCH_GROUPS]
        if unknown:
            raise KeyError(
                f"unknown bench groups {unknown}; available: {list(BENCH_GROUPS)}"
            )
        selected = [name for name in BENCH_GROUPS if name in set(only)]
    else:
        selected = list(BENCH_GROUPS)
    benchmarks = {name: BENCH_GROUPS[name]() for name in selected}
    if full and not only:
        benchmarks["fig05_full"] = {"seconds": round(bench_fig05_full(), 2)}
    report = {
        "schema": "repro-bench-sim-kernel/v1",
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "benchmarks": benchmarks,
        "reference": REFERENCE,
    }
    if output:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return report
