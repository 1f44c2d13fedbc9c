"""Cross-product sweeps over scenario axes (`repro.scenario`).

A sweep is a base :class:`~repro.scenario.spec.ScenarioSpec` plus
ordered override axes — ``--axis policy=random,jsq,gray --axis
fleet=4,8,16`` — run as a full cross-product, one seeded engine run
per arm, collected into a schema-versioned KPI matrix::

    {"schema": "repro-kpi-matrix/v1",
     "spec": {...base spec, canonical...},
     "axes": [{"axis": "sched.routing", "values": [...]}, ...],
     "records": [{"arm": {"sched.routing": "jsq", "fleet.workers": 4},
                  "kpis": {...KpiRecord...}}, ...]}

Axis names accept friendly aliases (``policy`` → ``sched.routing``,
``fleet`` → ``fleet.workers``) or any dotted spec path.  Arms iterate
with the *first* axis outermost, and every arm re-runs from the base
seed — arms are completely independent, so the matrix is
order-invariant and byte-identical per spec + axes (the §6.2 sweep of
EXPERIMENTS.md is exactly ``sec62.toml`` × policy × fleet).
"""

from __future__ import annotations

import itertools

from .engine import run_scenario
from .kpis import MATRIX_SCHEMA
from .spec import ScenarioSpec, SpecError

__all__ = [
    "AXIS_ALIASES",
    "resolve_axis",
    "parse_axis_value",
    "parse_axis_argument",
    "run_sweep",
]

# Friendly spellings for common sweep axes; anything else must be a
# dotted spec path (validated by ScenarioSpec.with_overrides).
AXIS_ALIASES = {
    "policy": "sched.routing",
    "routing": "sched.routing",
    "fleet": "fleet.workers",
    "workers": "fleet.workers",
    "cores": "fleet.cores",
    "backend": "fleet.backend",
    "platform": "fleet.platform",
    "apps": "trace.apps",
    "rps": "trace.rps",
    "rps_per_worker": "trace.rps_per_worker",
    "duration": "trace.duration_seconds",
    "scale": "trace.scale",
    "transient": "faults.transient_rate",
    "mttf": "faults.mttf_seconds",
    "severity": "faults.limp_severity",
    "hedge": "sched.hedge",
    "latency_health": "sched.latency_health",
    "seed": "seed",
}


def resolve_axis(name: str) -> str:
    return AXIS_ALIASES.get(name, name)


def parse_axis_value(text: str):
    """CLI text → typed value: bool, int, float, else string."""
    lowered = text.strip()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(lowered)
    except ValueError:
        pass
    try:
        return float(lowered)
    except ValueError:
        pass
    return lowered


def parse_axis_argument(argument: str) -> tuple:
    """``"policy=random,jsq"`` → ``("sched.routing", [values...])``."""
    name, eq, values_text = argument.partition("=")
    if not eq or not name.strip() or not values_text.strip():
        raise SpecError(
            f"axis {argument!r}: expected NAME=VALUE[,VALUE...]"
        )
    values = [
        parse_axis_value(value)
        for value in values_text.split(",")
        if value.strip() != ""
    ]
    if not values:
        raise SpecError(f"axis {argument!r}: no values")
    return resolve_axis(name.strip()), values


def run_sweep(
    spec: ScenarioSpec,
    axes: list,
    *,
    runner=run_scenario,
) -> dict:
    """Run the cross-product of ``axes`` over ``spec``; returns a matrix.

    ``axes`` is ``[(dotted_path, [values...]), ...]`` in sweep order
    (first axis outermost).  Every arm is checked up front so a typo'd
    policy name fails before minutes of simulation.
    """
    if not axes:
        raise SpecError("sweep: at least one --axis is required")
    paths = [path for path, _values in axes]
    value_lists = [values for _path, values in axes]
    arms = [
        dict(zip(paths, combo))
        for combo in itertools.product(*value_lists)
    ]
    for arm in arms:  # validate the whole matrix before running any arm
        spec.with_overrides(arm)
    records = []
    for arm in arms:
        arm_spec = spec.with_overrides(arm)
        run = runner(arm_spec)
        records.append({"arm": arm, "kpis": run.kpis.to_dict()})
    return {
        "schema": MATRIX_SCHEMA,
        "spec": spec.to_dict(),
        "axes": [
            {"axis": path, "values": list(values)}
            for path, values in axes
        ],
        "records": records,
    }
