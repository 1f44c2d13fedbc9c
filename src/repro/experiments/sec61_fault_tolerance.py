"""§6.1 — fault tolerance: goodput/latency degradation under injected faults.

The paper's fault-tolerance story (§6.1) is that failures are absorbed
by the platform: pure compute functions are transparently re-executed,
communication functions are retried when the protocol marks them
idempotent, and the Dirigent-based cluster manager (§5) re-routes work
away from crashed workers.  This experiment injects faults at two
levels and measures how goodput and tail latency degrade:

* **transient engine faults** — each task execution crashes its sandbox
  with probability ``rate``; the dispatcher retries with exponential
  backoff and seeded jitter;
* **worker fail-stop crashes** — workers die with exponential MTTF and
  return (fresh, registrations replayed) after exponential MTTR; the
  cluster manager skips unhealthy nodes and re-routes invocations that
  were in flight on a crashed one.

All randomness is seeded, so the same seed reproduces the same report
byte for byte; at fault rate 0 the run takes the no-retry fast path and
behaves exactly like a fault-free cluster.

The scenario is the bundled ``scenario/specs/sec61.toml``: this module
reads it (or a caller's reduced copy, ``base``), sweeps the fault axes
via spec overrides through :func:`~repro.scenario.engine.run_scenario`,
and renders the rows from each run's KpiRecord.
"""

from __future__ import annotations

from ..scenario.engine import run_scenario
from ..scenario.spec import ScenarioSpec, load_spec
from .common import ExperimentResult

__all__ = ["run_sec61"]


def run_sec61(
    base: ScenarioSpec | None = None,
    transient_rates: tuple = (0.0, 0.02, 0.05, 0.1, 0.2),
    mttf_sweep: tuple = (2.0, 1.0, 0.5),
) -> ExperimentResult:
    result = ExperimentResult(
        name="§6.1",
        description="fault tolerance: goodput and tail latency under injected faults",
        headers=[
            "scenario",
            "fault_rate",
            "mttf_s",
            "crashes",
            "reroutes",
            "retries",
            "offered",
            "goodput_rps",
            "success_pct",
            "p50_ms",
            "p99_ms",
        ],
    )
    if base is None:
        base = load_spec("sec61")

    def add_row(scenario, fault_rate, mttf_label, kpis):
        result.add_row(
            scenario=scenario,
            fault_rate=fault_rate,
            mttf_s=mttf_label,
            crashes=kpis.counters["crashes"],
            reroutes=kpis.counters["reroutes"],
            retries=kpis.counters["retries"],
            offered=kpis.offered,
            goodput_rps=kpis.goodput_rps,
            success_pct=kpis.success_pct,
            p50_ms=kpis.p50_ms,
            p99_ms=kpis.p99_ms,
        )

    # Sweep 1: transient engine faults, absorbed by backoff retries.
    for rate in transient_rates:
        run = run_scenario(
            base.with_overrides({"faults.transient_rate": rate})
        )
        add_row("transient", rate, "-", run.kpis)

    # Sweep 2: fail-stop worker crashes, absorbed by re-routing.
    for mttf in mttf_sweep:
        run = run_scenario(
            base.with_overrides({"faults.mttf_seconds": mttf})
        )
        add_row("fail-stop", 0.0, mttf, run.kpis)

    baseline = result.rows[0]
    result.note(
        f"baseline (no faults): {baseline['goodput_rps']:.1f} req/s goodput, "
        f"p99 {baseline['p99_ms']:.2f} ms; degradation curves above are relative to it"
    )
    result.note(
        "§6.1: pure compute functions are re-executed transparently (backoff "
        "retries); fail-stopped workers lose state and in-flight invocations "
        "re-route to healthy peers; every run is deterministic per seed"
    )
    return result
