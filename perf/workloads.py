"""The five benchmark workloads.

Each workload drives ``repro`` only through public functions and never
sees the seed: it receives inputs generated from it.  One object serves
one subprocess; per repetition the harness calls

* ``setup(tracer)`` — the set-up-only public calls, one span each
  (their summed time is the in-process part of ``setup_s``);
* ``parts(state, tracer)`` — the timed public calls (spec/app → KPIs) as
  a list of thunks of ~0.2-0.4 s each; the harness runs the calibration
  kernel between them, which is why one repetition is cut into parts;
* ``report(state, outcomes, deep, tracer)`` — completed invocations, the
  canonical KPI payload whose digest must repeat, host-level output checks,
  and the exact per-layer counts read from public stats.  ``deep`` adds the
  checks that cost a second run (``trace_replay`` at ``shards=2``).

Why these five, and which layers each one exercises or bypasses, is in
perf/README.md.
"""

from __future__ import annotations

import hashlib
import json
import time

MiB = 1 << 20

__all__ = ["WORKLOADS"]


def _events(env) -> int:
    # The kernel keeps its scheduled-event count only in `_seq` (the
    # figure `repro bench` reports as sim_steps_per_invocation); it is
    # the single non-public name this harness reads.
    return getattr(env, "_seq", 0)


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def _check(checks: list, ok: bool, what: str) -> None:
    checks.append((bool(ok), what))


def _worker_counts(worker, offered: int, latencies: list) -> dict:
    """Counts of a workload driven on one ``WorkerNode`` (no cluster)."""
    from repro.sim import percentile

    stats = worker.stats()
    completed = len(latencies)
    return {
        "sim.events_per_inv": _share(_events(worker.env), completed),
        "dispatcher.retries_per_inv": _share(stats["retries_performed"], completed),
        "dispatcher.deadline_expired_share": _share(
            stats["deadline_expirations"], offered
        ),
        "engines.compute_tasks_per_inv": _share(stats["compute_tasks"], completed),
        "engines.comm_tasks_per_inv": _share(stats["comm_tasks"], completed),
        "data.sim_peak_committed_mib": stats["peak_committed_bytes"] / MiB,
        "scenario.sim_p50_ms": 1e3 * percentile(latencies, 50),
        "scenario.sim_p99_ms": 1e3 * percentile(latencies, 99),
        "scenario.sim_goodput_rps": _share(completed, stats["now"]),
        "scenario.sim_success_pct": 100.0 * _share(completed, offered),
    }


def _row_multiset(table) -> list:
    return sorted(json.dumps(row, sort_keys=True, default=str) for row in table.to_rows())


# -- cluster_steady / cluster_gray ---------------------------------------------


class ClusterScenario:
    """A bundled synthetic-trace spec through ``run_scenario``."""

    def __init__(self, bundled, overrides, quick_overrides, seed, quick):
        self._bundled = bundled
        self._overrides = dict(overrides)
        if quick:
            self._overrides.update(quick_overrides)
        self._seed = seed

    def setup(self, tracer):
        from repro.scenario import (
            assemble_cluster,
            build_requests,
            bundled_specs,
            load_spec,
        )
        from repro.scenario.engine import build_workload

        with tracer.span("load_spec"):
            spec = load_spec(bundled_specs()[self._bundled])
            spec = spec.with_overrides(
                {**self._overrides, "seed": spec.seed + self._seed}
            )
            spec.check()
        with tracer.span("build_workload"):
            build_workload(spec)
        with tracer.span("assemble_cluster"):
            assemble_cluster(spec)
        with tracer.span("build_requests"):
            build_requests(spec)
        return spec

    def parts(self, spec, tracer):
        from repro.scenario import run_scenario

        def scenario():
            with tracer.span("run_scenario"):
                return run_scenario(spec)

        return [scenario]

    def report(self, spec, outcomes, deep, tracer):
        from repro.scenario.engine import composition_names

        (run,) = outcomes
        kpis = run.kpis
        cluster = run.cluster
        stats = cluster.stats()
        failures, gray = stats["failures"], stats["gray"]
        workers = [worker.stats() for worker in cluster.workers]
        offered, completed = kpis.offered, kpis.completed
        history = [
            comm / (compute + comm)
            for worker in cluster.workers
            for _now, compute, comm in worker.allocator.allocation_history
        ]
        counts = {
            "sim.events_per_inv": _share(_events(cluster.env), completed),
            "dispatcher.retries_per_inv": _share(kpis.counters["retries"], completed),
            "dispatcher.deadline_expired_share": _share(
                sum(w["deadline_expirations"] for w in workers), offered
            ),
            "engines.compute_tasks_per_inv": _share(
                sum(w["compute_tasks"] for w in workers), completed
            ),
            "engines.comm_tasks_per_inv": _share(
                sum(w["comm_tasks"] for w in workers), completed
            ),
            "data.sim_peak_committed_mib": stats["peak_committed_bytes"] / MiB,
            "cluster.reroutes_per_inv": _share(failures["reroutes"], completed),
            "cluster.hedge_rate_pct": 100.0 * gray["hedge_rate"],
            "cluster.hedge_win_share": _share(gray["hedges_won"], gray["hedges_issued"]),
            "cluster.quarantine_entries": gray["quarantine_entries"],
            "cluster.crashes": failures["worker_crashes"],
            "sched.imbalance": kpis.imbalance,
            "controlplane.comm_core_share": _share(sum(history), len(history)),
            "scenario.sim_p50_ms": kpis.p50_ms,
            "scenario.sim_p99_ms": kpis.p99_ms,
            "scenario.sim_goodput_rps": kpis.goodput_rps,
            "scenario.sim_success_pct": kpis.success_pct,
        }
        checks: list = []
        _check(checks, offered == completed + failures["failed_invocations"],
               "offered = completed + failed")
        # The engine keeps no outputs, so echo one more request per app
        # through the cluster it just drove.  A simulated failure (dead
        # fleet, deadline) is model output; wrong bytes are ours.
        payload = spec.workload.payload.encode("utf-8")
        for name in composition_names(spec):
            result = cluster.invoke_and_run(name, {"data": payload})
            if result.ok:
                echoed = bytes(result.output("result").item("data").data)
                _check(checks, echoed == payload, f"echo bytes of {name}")
        return {
            "completed": completed,
            "kpi": kpis.to_json(),
            "checks": checks,
            "counts": counts,
        }

    def probe_inputs(self, spec):
        from repro.data import DataItem, DataSet
        from repro.scenario.engine import build_workload

        payload = spec.workload.payload.encode("utf-8")
        return {
            "sets": [DataSet("data", [DataItem("data", payload)])],
            "dsl": build_workload(spec)[0][1],
            "spec": spec,
        }


# -- trace_replay ----------------------------------------------------------------


class TraceReplay:
    """Streamed Azure-shaped trace through the sharded simulator, once
    per platform (Fig 10's two arms)."""

    platforms = ("dandelion", "faas")

    def __init__(self, seed, quick):
        self._seed = seed
        # 3000 functions: with fewer, the heavy-tailed per-function rates
        # move the invocation count (and with it the per-window cost
        # share of each invocation) by +-8% from seed to seed.
        self._scale = 3.0 if quick else 30.0
        self._duration = 100.0 if quick else 120.0

    def _trace(self, spec):
        from repro.trace import streamed_trace

        return streamed_trace(
            function_count=round(spec.trace.functions_base * spec.trace.scale),
            duration_seconds=spec.trace.duration_seconds,
            total_rps=spec.trace.rps_base * spec.trace.scale,
            seed=spec.trace_seed(),
        )

    def setup(self, tracer):
        from repro.scenario import bundled_specs, load_spec

        with tracer.span("load_spec"):
            spec = load_spec(bundled_specs()["fig10_full"])
            spec = spec.with_overrides(
                {
                    "trace.scale": self._scale,
                    "trace.duration_seconds": self._duration,
                    "seed": spec.seed + self._seed,
                }
            )
            spec.check()
        with tracer.span("streamed_trace"):
            self._trace(spec)
        return spec

    def _arms(self, spec, tracer, **knobs):
        from repro.scenario import run_scenario

        def arm(platform):
            with tracer.span("run_scenario", platform=platform, **knobs):
                return run_scenario(
                    spec.with_overrides({"fleet.platform": platform}), **knobs
                )

        return [lambda platform=platform: arm(platform) for platform in self.platforms]

    def parts(self, spec, tracer):
        return self._arms(spec, tracer, shards=1)

    @staticmethod
    def _kpi(runs):
        return {
            platform: {"kpis": run.kpis.to_json(), "summary": run.report.summary()}
            for platform, run in runs.items()
        }

    def report(self, spec, outcomes, deep, tracer):
        runs = dict(zip(self.platforms, outcomes))
        reports = [run.report for run in runs.values()]
        dandelion, faas = runs["dandelion"], runs["faas"]
        completed = sum(report.completed for report in reports)
        windows = sum(report.windows for report in reports)
        wall = sum(report.wall_seconds for report in reports)
        stall = sum(
            shard["stall_seconds"] for report in reports for shard in report.shard_stats
        )
        counts = {
            "sim.sharded.events_per_inv": _share(
                sum(report.events for report in reports), completed
            ),
            "sim.sharded.windows": windows,
            "sim.sharded.host_ms_per_window": 1e3 * _share(wall, windows),
            "sim.sharded.stall_share": _share(stall, wall),
            "data.sim_peak_committed_mib": max(dandelion.report.committed_grid) / MiB,
            "baselines.cold_start_share": faas.kpis.extras["cold_fraction"],
            "baselines.committed_ratio": _share(
                faas.kpis.extras["committed_mean_mib"],
                dandelion.kpis.extras["committed_mean_mib"],
            ),
            "scenario.sim_p50_ms": dandelion.kpis.p50_ms,
            "scenario.sim_p99_ms": dandelion.kpis.p99_ms,
            "scenario.sim_goodput_rps": dandelion.kpis.goodput_rps,
            "scenario.sim_success_pct": dandelion.kpis.success_pct,
        }
        kpi = self._kpi(runs)
        checks: list = []
        for platform, run in runs.items():
            _check(checks, run.report.routed == run.report.completed,
                   f"{platform}: routed = completed")
            _check(checks, run.kpis.offered == run.report.routed,
                   f"{platform}: KPI offered = routed")
        if deep:
            # Serial executor: the comparison is the coordinator's cost
            # per extra shard, and the benchmark starts no processes.
            begin = time.perf_counter()
            arms = self._arms(spec, tracer, shards=2, executor="serial")
            sharded = dict(zip(self.platforms, [arm() for arm in arms]))
            counts["sim.sharded.shards2_cost_ratio"] = _share(
                time.perf_counter() - begin, wall
            )
            _check(checks, self._kpi(sharded) == kpi,
                   "KPI record at shards=2 = shards=1")
        return {
            "completed": completed,
            "kpi": kpi,
            "checks": checks,
            "counts": counts,
        }

    def probe_inputs(self, spec):
        # No data-plane payloads and no composition on this path.
        return {"spec": spec, "trace": self._trace(spec)}


# -- dag_logproc -----------------------------------------------------------------


class DagLogproc:
    """The Fig 3 log-processing DAG on one worker under open-loop load."""

    shards = 6
    lines_per_shard = 80
    rps = 200.0

    def __init__(self, seed, quick):
        self._seed = seed
        self._duration = 0.25 if quick else 1.0

    def setup(self, tracer):
        from repro import WorkerConfig, WorkerNode
        from repro.apps import register_logproc_app, setup_log_services
        from repro.sim import Rng

        with tracer.span("WorkerNode"):
            worker = WorkerNode(
                WorkerConfig(total_cores=16, control_plane_enabled=True, seed=self._seed)
            )
        with tracer.span("setup_log_services"):
            setup_log_services(
                worker,
                shard_count=self.shards,
                lines_per_shard=self.lines_per_shard,
                shard_latency_seconds=22e-3,
            )
        with tracer.span("register_logproc_app"):
            composition = register_logproc_app(worker)
        with tracer.span("poisson_arrivals"):
            arrivals = Rng(self._seed).poisson_arrivals(self.rps, self._duration)
        return worker, composition, arrivals

    def parts(self, state, tracer):
        from repro.apps import DEFAULT_TOKEN

        worker, composition, arrivals = state
        env = worker.env
        inputs = {"token": DEFAULT_TOKEN.encode()}
        results = []

        def one(arrive_at):
            delay = arrive_at - env.now
            if delay > 0:
                yield env.timeout(delay)
            results.append((yield worker.frontend.invoke(composition, inputs)))

        def driver():
            yield env.all_of([env.process(one(at)) for at in arrivals])

        def invoke_loop():
            with tracer.span("invoke_loop"):
                env.run(until=env.process(driver()))
            return results

        return [invoke_loop]

    def _expected_report(self) -> bytes:
        # Independent of apps.logproc.render: recomputed from what
        # setup_log_services documents about the shard contents.
        errors = sum(1 for line in range(self.lines_per_shard) if line % 17 == 0)
        sections = "".join(
            f"<section id='shard{index}'><h2>shard{index}</h2>"
            f"<p>{self.lines_per_shard} lines, {errors} errors</p></section>"
            for index in range(self.shards)
        )
        return (
            "<html><body><h1>Log report</h1>"
            f"<p>total_lines={self.shards * self.lines_per_shard} "
            f"errors={self.shards * errors}</p>{sections}</body></html>"
        ).encode()

    def report(self, state, outcomes, deep, tracer):
        worker, _composition, arrivals = state
        (results,) = outcomes
        stats = worker.stats()
        ok = [result for result in results if result.ok]
        latencies = sorted(result.latency for result in ok)
        history = [
            comm / (compute + comm)
            for _now, compute, comm in worker.allocator.allocation_history
        ]
        counts = _worker_counts(worker, len(arrivals), latencies)
        counts["controlplane.comm_core_share"] = _share(sum(history), len(history))
        expected = self._expected_report()
        outputs = hashlib.sha256()
        checks: list = []
        _check(
            checks,
            len(arrivals) == stats["invocations_completed"] + stats["invocations_failed"]
            and len(results) == len(arrivals),
            "offered = completed + failed",
        )
        for result in ok:
            rendered = bytes(result.output("report").item("report").data)
            outputs.update(rendered)
            _check(checks, rendered == expected, "report bytes")
        return {
            "completed": len(ok),
            "kpi": {
                "latencies": latencies,
                "stats": stats,
                "outputs": outputs.hexdigest(),
            },
            "checks": checks,
            "counts": counts,
        }

    def probe_inputs(self, state):
        from repro.apps import LOGPROC_DSL
        from repro.data import DataItem, DataSet

        return {
            "sets": [DataSet("html", [DataItem("report", self._expected_report())])],
            "dsl": LOGPROC_DSL,
        }


# -- ssb_query -------------------------------------------------------------------


class SsbQuery:
    """The 13 Star Schema Benchmark queries as partition-parallel DAGs."""

    partitions = 16

    def __init__(self, seed, quick):
        self._seed = seed
        self._scale_factor = 0.0005 if quick else 0.005
        self._reference: dict = {}  # query -> rows of run_ssb_query (same every repetition)

    def setup(self, tracer):
        from repro import WorkerConfig, WorkerNode
        from repro.net import ObjectStoreService
        from repro.query import (
            SSB_QUERY_NAMES,
            generate_ssb_tables,
            load_ssb_to_store,
            register_ssb_query,
        )

        with tracer.span("generate_ssb_tables"):
            tables = generate_ssb_tables(
                scale_factor=self._scale_factor, seed=self._seed
            )
        with tracer.span("WorkerNode"):
            worker = WorkerNode(
                WorkerConfig(total_cores=16, control_plane_enabled=False, seed=self._seed)
            )
            store = ObjectStoreService()
            worker.network.register(store)
        with tracer.span("load_ssb_to_store"):
            manifest = load_ssb_to_store(tables, store, partitions=self.partitions)
        with tracer.span("register_ssb_query"):
            compositions = {
                query: register_ssb_query(worker, query, partitions=self.partitions)
                for query in SSB_QUERY_NAMES
            }
        return tables, worker, store, manifest, compositions

    def parts(self, state, tracer):
        """One part per query family (Q1.x .. Q4.x)."""
        _tables, worker, _store, _manifest, compositions = state

        def family(prefix):
            with tracer.span("invoke_loop", family=prefix):
                return {
                    query: worker.invoke_and_run(composition, {"query": query.encode()})
                    for query, composition in compositions.items()
                    if query.startswith(prefix)
                }

        prefixes = sorted({query.split(".")[0] for query in compositions})
        return [lambda prefix=prefix: family(prefix) for prefix in prefixes]

    def report(self, state, outcomes, deep, tracer):
        from repro.query import Table, run_ssb_query

        tables, worker, _store, manifest, _compositions = state
        results = {query: result for part in outcomes for query, result in part.items()}
        stats = worker.stats()
        ok = {query: result for query, result in results.items() if result.ok}
        latencies = sorted(result.latency for result in ok.values())
        counts = _worker_counts(worker, len(results), latencies)
        counts["query.scanned_mb"] = manifest["total_bytes"] / 1e6
        counts["query.sim_latency_s_mean"] = _share(sum(latencies), len(latencies))
        checks: list = []
        _check(
            checks,
            len(results) == stats["invocations_completed"] + stats["invocations_failed"],
            "offered = completed + failed",
        )
        tables_out = {}
        for query, result in results.items():
            _check(checks, result.ok, f"{query} completed")
            if result.ok:
                produced = bytes(result.output("result").item("table").data)
                tables_out[query] = produced
                # Q3.x order by revenue alone, so the platform's
                # partition-merged result may order ties differently:
                # compare the rows as a multiset.
                if query not in self._reference:
                    self._reference[query] = _row_multiset(run_ssb_query(query, tables))
                _check(
                    checks,
                    _row_multiset(Table.from_bytes(produced)) == self._reference[query],
                    f"{query} result rows",
                )
        return {
            "completed": len(ok),
            "kpi": {
                "latencies": {q: r.latency for q, r in ok.items()},
                "stats": stats,
                "tables": tables_out,
            },
            "checks": checks,
            "counts": counts,
        }

    def probe_inputs(self, state):
        from repro.composition import composition_to_dsl
        from repro.data import DataItem, DataSet

        tables, worker, store, _manifest, compositions = state
        blob = store.get_object("ssb", "lineorder/part0")
        composition = worker.registry.composition(compositions["Q1.1"])
        return {
            "sets": [DataSet("chunk", [DataItem("p0", blob)])],
            "dsl": composition_to_dsl(composition),
            "tables": tables,
        }


# -- registry --------------------------------------------------------------------

_STEADY = {"fleet.workers": 8, "trace.duration_seconds": 1.5}
_GRAY = {
    "trace.duration_seconds": 12.0,
    "sched.hedge": True,
    "faults.limp_severity": 4.0,
    "faults.transient_rate": 0.05,
    "faults.mttf_seconds": 8.0,
}

WORKLOADS = {
    "cluster_steady": lambda seed, quick: ClusterScenario(
        "sec62", _STEADY, {"trace.duration_seconds": 0.3}, seed, quick
    ),
    "cluster_gray": lambda seed, quick: ClusterScenario(
        "sec63", _GRAY, {"trace.duration_seconds": 2.0}, seed, quick
    ),
    "trace_replay": TraceReplay,
    "dag_logproc": DagLogproc,
    "ssb_query": SsbQuery,
}
