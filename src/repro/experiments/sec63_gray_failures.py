"""§6.3 — gray failures: limplock workers vs latency-based defenses.

§6.1's fault story covers workers that *die*: fail-stop detection
removes them from the routing ring and in-flight work re-routes.  Real
fleets degrade before they die — a failing disk or flaky NIC leaves a
worker nominally healthy while it serves every request several times
slower (the "limplock" regime), and a fail-stop detector is blind to
it: the slow worker keeps absorbing its share of traffic and poisons
cluster-wide tail latency and goodput.

This experiment injects seeded limp cycles (severity × duration, per
worker, from forked RNG streams — see
:class:`~repro.cluster.faults.WorkerFaultInjector`) and sweeps three
detector configurations over a severity ladder:

* ``fail-stop`` — the §6.1 baseline: least-outstanding routing, no
  latency health.  Limping workers stay in full rotation.
* ``latency`` — the ``gray`` routing policy over the cluster's
  per-worker completion-latency EWMA: workers whose score drifts past
  the quarantine factor are sidelined (with load-bounded spill-back,
  so they keep a recovery trickle).
* ``latency+hedge`` — additionally re-issue an invocation to a second
  worker once it has been outstanding longer than the p95 of observed
  latency, first completion wins.  Hedges are budget-capped at a small
  fraction of traffic and only sent for pure-compute (idempotent)
  compositions.

The per-invocation deadline is deliberately tight (a few multiples of
the healthy service time): a severely limping worker pushes its work
past the deadline, so blindness to gray failure costs *goodput*, not
just tail latency.  Every run is deterministic per seed.

The scenario is the bundled ``scenario/specs/sec63.toml``: this module
reads it (or a caller's reduced copy, ``base``), sweeps it over
``faults.limp_severity``, and expresses each detector arm as
sched-section overrides (routing / latency_health / hedge) through
:func:`~repro.scenario.engine.run_scenario`.
"""

from __future__ import annotations

from ..scenario.engine import run_scenario
from ..scenario.spec import ScenarioSpec, load_spec
from .common import ExperimentResult

__all__ = ["run_sec63"]

# The spec's deadline is 5x the healthy service time, so the ladder
# crosses both regimes: at 4x a limped worker still beats the deadline,
# at 8x it cannot.
_SEVERITIES = (1.0, 2.0, 4.0, 8.0)
_DETECTORS = ("fail-stop", "latency", "latency+hedge")


def _detector_overrides(detector: str) -> dict:
    with_health = detector != "fail-stop"
    return {
        "sched.routing": "gray" if with_health else "least_loaded",
        "sched.latency_health": with_health,
        "sched.hedge": detector == "latency+hedge",
    }


def run_sec63(base: ScenarioSpec | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="§6.3",
        description="gray failures: limplock severity vs fail-stop / "
        "latency-quarantine / hedging detectors",
        headers=[
            "severity",
            "detector",
            "limps",
            "quarantines",
            "offered",
            "goodput_rps",
            "success_pct",
            "p50_ms",
            "p99_ms",
            "hedge_rate_pct",
        ],
    )
    if base is None:
        base = load_spec("sec63")
    for severity in _SEVERITIES:
        for detector in _DETECTORS:
            kpis = run_scenario(base.with_overrides({
                "faults.limp_severity": severity,
                **_detector_overrides(detector),
            })).kpis
            result.add_row(
                severity=severity,
                detector=detector,
                limps=kpis.counters["limps"],
                quarantines=kpis.counters["quarantines"],
                offered=kpis.offered,
                goodput_rps=kpis.goodput_rps,
                success_pct=kpis.success_pct,
                p50_ms=kpis.p50_ms,
                p99_ms=kpis.p99_ms,
                hedge_rate_pct=kpis.counters["hedge_rate_pct"],
            )

    result.note(
        "fail-stop detection is blind to limplock: the degraded worker keeps "
        "its full traffic share, so severity >= the deadline/service ratio "
        "turns tail latency pain into goodput loss"
    )
    result.note(
        "latency quarantine (policy=gray) sidelines the limping worker after "
        "its completion-latency EWMA drifts past the fleet's; hedging "
        "additionally re-issues the slowest in-flight requests "
        f"(budget {100.0 * base.sched.hedge_budget_fraction:.0f}% of "
        "traffic) and takes the first completion"
    )
    result.note("deterministic per seed: identical tables for identical seeds")
    return result
