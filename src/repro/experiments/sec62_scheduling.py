"""§6.2 — cluster scheduling policies under skewed trace-driven load.

Dandelion's elasticity story (§6, Fig. 7) depends on fast, explicit
scheduling decisions at every layer; Dirigent showed the cluster
manager's placement policy is itself a bottleneck at scale.  This
experiment sweeps every registered routing policy
(:data:`repro.sched.ROUTING_POLICIES`) against fleet size under a
skewed, trace-shaped workload — Zipf-popular applications with
heavy binaries, Poisson arrivals — and reports goodput, latency
percentiles, and per-worker load imbalance.

What the sweep shows:

* ``random`` routing pays twice under skew: queue-length variance
  inflates p99 (a random choice lands on a busy worker with constant
  probability) and every app's binary eventually cold-loads on every
  worker;
* ``jsq`` (power-of-d-choices, d=2) removes most of the queueing
  variance with two samples per decision — the classic Mitzenmacher
  result — without reading the whole fleet's state;
* ``locality`` routes each app to the workers whose binary caches are
  already warm for it, collapsing load-from-disk stalls on top of the
  balance the least-loaded tie-break provides;
* ``round_robin``/``least_loaded`` anchor the comparison.

Every run is deterministic per seed: the same arrival times and the
same app popularity draws are replayed against every policy × fleet
size cell, so the cells differ only in placement decisions.

The scenario is the bundled ``scenario/specs/sec62.toml``: this module
reads it (or a caller's reduced copy, ``base``) and sweeps it across
``fleet.workers`` × ``sched.routing`` with
:func:`~repro.scenario.sweep.run_sweep` — exactly what ``python -m repro
scenario sweep sec62 --axis fleet=4,8,16 --axis policy=...`` runs from
the CLI; the ``reseed_per_fleet`` trace knob keeps the request stream
pinned per fleet size.
"""

from __future__ import annotations

from ..backends.costs import DISK_BYTES_PER_SECOND
from ..scenario.spec import ScenarioSpec, load_spec
from ..scenario.sweep import run_sweep
from .common import ExperimentResult

__all__ = ["run_sec62"]

MiB = 1024 * 1024

# The §6.2 sweep compares the load-balancing family; the "gray"
# quarantine policy is a fault-domain defense benchmarked in §6.3, so
# the default arm list is pinned (not tuple(ROUTING_POLICIES)) to keep
# this experiment's committed output stable as the registry grows.
_SEC62_POLICIES = ("round_robin", "least_loaded", "random", "jsq", "locality")


def run_sec62(
    base: ScenarioSpec | None = None,
    policies: tuple = _SEC62_POLICIES,
    fleet_sizes: tuple = (4, 8, 16),
) -> ExperimentResult:
    result = ExperimentResult(
        name="§6.2",
        description="cluster scheduling policies: goodput/latency vs fleet size "
        "under skewed trace load",
        headers=[
            "policy",
            "workers",
            "offered_rps",
            "goodput_rps",
            "success_pct",
            "p50_ms",
            "p99_ms",
            "imbalance",
        ],
    )
    if base is None:
        base = load_spec("sec62")
    matrix = run_sweep(base, [
        ("fleet.workers", list(fleet_sizes)),
        ("sched.routing", list(policies)),
    ])
    trace, workload = base.trace, base.workload
    for record in matrix["records"]:
        kpis = record["kpis"]
        result.add_row(
            policy=record["arm"]["sched.routing"],
            workers=record["arm"]["fleet.workers"],
            offered_rps=kpis["offered"] / trace.duration_seconds,
            goodput_rps=kpis["goodput_rps"],
            success_pct=kpis["success_pct"],
            p50_ms=kpis["p50_ms"],
            p99_ms=kpis["p99_ms"],
            imbalance=kpis["imbalance"],
        )
    result.note(
        f"{trace.apps} apps, Zipf skew {trace.zipf_skew}, "
        f"{workload.binary_mib:g} MiB binaries "
        f"(~{workload.binary_mib * MiB / DISK_BYTES_PER_SECOND * 1e3:.0f} ms "
        "cold load), "
        f"{workload.compute_seconds * 1e3:g} ms service, "
        f"{trace.rps_per_worker:g} rps/worker; "
        "identical request streams per fleet size, so cells differ only in "
        "placement decisions"
    )
    result.note(
        "jsq = power-of-2-choices sampling; locality = warm-binary-cache "
        "affinity with load-bounded spill (docs/scheduling.md)"
    )
    return result
