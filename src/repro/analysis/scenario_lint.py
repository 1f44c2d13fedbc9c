"""SCN — static validation of scenario spec files.

The `repro.scenario` harness turns "add a scenario" into a TOML file,
which moves a class of mistakes out of Python and into data: a typo'd
routing policy, a backend that doesn't exist, a deadline the workload
statically cannot meet.  This pass catches them before a spec burns
simulation time (or worse, silently runs a default), the same way the
PUR/CMP passes guard functions and compositions:

====== ======== =====================================================
code   severity meaning
====== ======== =====================================================
SCN001 error    spec fails to parse or validate (TOML syntax, unknown
                key, out-of-range value)
SCN002 error    unknown routing policy (`repro.sched.ROUTING_POLICIES`)
SCN003 error    unknown core policy (`repro.sched.CORE_POLICIES`)
SCN004 error    unknown autoscaler (`repro.sched.SCALING_POLICIES`)
SCN005 error    unknown backend or machine profile
SCN006 warning  no explicit ``seed`` — the run is still deterministic,
                but the spec doesn't *say* which stream it pins
SCN007 error    infeasible deadline: ``faults.deadline_seconds`` is
                below the workload's static critical path (the PR 9
                cost model, :func:`repro.analysis.compositions.cost_summary`)
====== ======== =====================================================

The pass runs over every bundled spec by default plus any ``*.toml``
paths given on the lint command line; it is wired into ``python -m
repro lint`` as the ``scenarios`` pass (``--only scenarios``).
"""

from __future__ import annotations

from .diagnostics import Diagnostic, ERROR, WARNING

__all__ = ["lint_scenario_text", "lint_scenario_path", "iter_bundled_specs"]


def iter_bundled_specs():
    """``(reported_path, text)`` for every bundled scenario spec."""
    import os

    from ..scenario.spec import bundled_specs

    for name, path in bundled_specs().items():
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        reported = "/".join(
            ["src", "repro", "scenario", "specs", os.path.basename(path)]
        )
        yield reported, text


def lint_scenario_path(path: str) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    import os

    return lint_scenario_text(text, path.replace(os.sep, "/"))


def lint_scenario_text(text: str, file: str) -> list:
    """Lint one spec file's text; returns :class:`Diagnostic` records."""
    from ..scenario.spec import SpecError, parse_toml, scenario_from_dict

    try:
        payload = parse_toml(text)
    except SpecError as exc:
        return [Diagnostic(
            code="SCN001", severity=ERROR, message=str(exc), file=file,
            symbol="<spec>",
            hint="fix the TOML syntax; see docs/scenarios.md for the schema",
        )]
    diagnostics = []
    if isinstance(payload, dict) and "seed" not in payload:
        diagnostics.append(Diagnostic(
            code="SCN006", severity=WARNING,
            message="spec does not pin an explicit seed "
                    "(defaults to 0; determinism holds but is implicit)",
            file=file, symbol="<spec>",
            hint="add `seed = <int>` at the top level",
        ))
    try:
        spec = scenario_from_dict(payload)
    except SpecError as exc:
        diagnostics.append(Diagnostic(
            code="SCN001", severity=ERROR, message=str(exc), file=file,
            symbol="<spec>",
            hint="see docs/scenarios.md for the spec schema",
        ))
        return diagnostics
    diagnostics.extend(_name_diagnostics(spec, file))
    deadline_diagnostic = _deadline_diagnostic(spec, file)
    if deadline_diagnostic is not None:
        diagnostics.append(deadline_diagnostic)
    return diagnostics


def _name_diagnostics(spec, file: str) -> list:
    from ..scenario.spec import validate_names

    hints = {
        "SCN002": "pick a policy from repro.sched.ROUTING_POLICIES",
        "SCN003": "pick a policy from repro.sched.CORE_POLICIES",
        "SCN004": "pick a policy from repro.sched.SCALING_POLICIES",
        "SCN005": "pick a backend/machine from repro.backends",
    }
    return [
        Diagnostic(
            code=code, severity=ERROR, message=message, file=file,
            symbol=spec.name, hint=hints.get(code),
        )
        for code, message in validate_names(spec)
    ]


def _deadline_diagnostic(spec, file: str):
    """SCN007 when the deadline is below the static critical path."""
    if spec.faults.deadline_seconds is None or spec.trace.kind != "synthetic":
        return None
    from ..composition.dsl import parse_composition
    from ..composition.registry import Registry
    from ..scenario.engine import build_workload
    from .compositions import cost_summary

    registry = Registry()
    worst_path_seconds = 0.0
    # Apps share one workload shape today, but cost each app's
    # composition anyway: the bound must keep holding if per-app
    # shapes diverge.
    for binary, dsl in build_workload(spec):
        registry.register_function(binary)
        composition = parse_composition(dsl, library=registry.compositions)
        summary = cost_summary(composition, registry)
        worst_path_seconds = max(worst_path_seconds, summary.critical_path_seconds)
    if spec.faults.deadline_seconds < worst_path_seconds:
        return Diagnostic(
            code="SCN007", severity=ERROR,
            message=(
                f"faults.deadline_seconds = {spec.faults.deadline_seconds:g} "
                f"is below the workload's static critical path "
                f"({worst_path_seconds:g}s): every invocation times out"
            ),
            file=file, symbol=spec.name,
            hint="raise the deadline above the critical path, or shrink "
                 "workload.compute_seconds",
        )
    return None
