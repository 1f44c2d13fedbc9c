"""The ``python -m repro lint`` driver.

Collects diagnostics across the five passes (determinism self-lint,
function purity, composition lint, whole-composition dataflow,
scenario-spec validation), applies the checked-in baseline, renders
text/JSON/SARIF, and computes the exit code:

- default mode fails (exit 1) on any *new* error-severity finding;
- ``--strict`` fails on any new finding at all, and additionally on
  *stale* baseline entries for the passes that ran — a suppression
  matching nothing is dead weight that silently re-admits the finding
  when someone reintroduces it (CI runs strict);
- ``--write-baseline`` regenerates the suppression file from the
  current findings (the only sanctioned way to grandfather a finding —
  codes are never skipped wholesale).  Entries belonging to passes
  that did *not* run are preserved, so a scoped ``lint --self
  --write-baseline`` cannot drop the purity pass's suppressions.

The function/composition corpus is the built-in demo registry: the
three paper applications (log processing, image compression, Text2SQL)
registered on a throwaway worker, plus any composition blocks embedded
in files passed on the command line (``examples/*.py`` in CI).
"""

from __future__ import annotations

import os
from typing import Optional

from .composition_lint import extract_dsl_blocks, lint_composition, lint_dsl_source
from .dataflow import analyze_composition
from .determinism_lint import iter_self_sources, lint_source
from .diagnostics import Baseline, Diagnostic, ERROR, render_json, render_text
from .purity_check import verify_purity
from .sarif import render_sarif

__all__ = [
    "run_lint",
    "collect_diagnostics",
    "demo_registry",
    "DEFAULT_BASELINE_PATH",
    "PASS_CODE_PREFIXES",
]

DEFAULT_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "self_lint_baseline.json"
)

# Which diagnostic codes each pass owns — scopes baseline staleness and
# --write-baseline pruning to the passes that actually ran.
PASS_CODE_PREFIXES = {
    "self": ("DET",),
    "functions": ("PUR",),
    "compositions": ("CMP",),
    "dataflow": ("RACE", "CON", "COST"),
    "scenarios": ("SCN",),
}


def demo_registry():
    """Registry holding the built-in demo apps' functions/compositions."""
    from ..apps.compress import register_compression_app
    from ..apps.logproc import register_logproc_app
    from ..apps.text2sql import register_text2sql_app
    from ..worker import WorkerConfig, WorkerNode

    worker = WorkerNode(WorkerConfig(total_cores=2, control_plane_enabled=False))
    register_logproc_app(worker)
    register_compression_app(worker)
    register_text2sql_app(worker)
    return worker.registry


# -- collection ---------------------------------------------------------------


def collect_diagnostics(
    *,
    lint_self_pass: bool = True,
    lint_functions: bool = True,
    lint_compositions: bool = True,
    lint_dataflow: bool = False,
    lint_scenarios: bool = False,
    paths: Optional[list[str]] = None,
    registry=None,
) -> list[Diagnostic]:
    """Run the selected passes and pool their findings."""
    diagnostics: list[Diagnostic] = []
    if lint_self_pass:
        for reported, source, hot_path in iter_self_sources():
            diagnostics.extend(lint_source(source, reported, hot_path=hot_path))
    if lint_functions or lint_compositions or lint_dataflow:
        if registry is None:
            registry = demo_registry()
    if lint_functions:
        for name in registry.function_names:
            diagnostics.extend(verify_purity(registry.function(name)).diagnostics)
    if lint_compositions:
        for name in registry.composition_names:
            diagnostics.extend(lint_composition(registry.composition(name), registry))
    if lint_dataflow:
        for name in registry.composition_names:
            diagnostics.extend(
                analyze_composition(registry.composition(name), registry).diagnostics
            )
    if (lint_compositions or lint_dataflow) and paths:
        diagnostics.extend(
            _lint_paths(
                [p for p in paths if not p.endswith(".toml")], registry,
                compositions=lint_compositions, dataflow=lint_dataflow,
            )
        )
    if lint_scenarios:
        diagnostics.extend(_lint_scenarios(paths))
    return diagnostics


def _lint_scenarios(paths) -> list:
    """SCN pass: bundled scenario specs plus any ``*.toml`` paths."""
    from .scenario_lint import iter_bundled_specs, lint_scenario_text

    sources = list(iter_bundled_specs())
    for path in paths or ():
        if not path.endswith(".toml"):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            sources.append((path.replace(os.sep, "/"), handle.read()))
    diagnostics: list[Diagnostic] = []
    for reported, text in sources:
        diagnostics.extend(lint_scenario_text(text, reported))
    return diagnostics


def _lint_paths(paths, registry, *, compositions, dataflow):
    """Lint composition blocks embedded in free-text files."""
    diagnostics: list[Diagnostic] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        reported = path.replace(os.sep, "/")
        for source, offset in extract_dsl_blocks(text):
            if compositions:
                _comp, found = lint_dsl_source(
                    source, library=registry.compositions, registry=registry,
                    file=reported, line_offset=offset,
                )
                diagnostics.extend(found)
            if dataflow:
                from ..composition.dsl import parse_composition
                from ..composition.graph import CompositionError

                try:
                    composition = parse_composition(
                        source, library=registry.compositions
                    )
                except CompositionError:
                    continue  # the compositions pass reports CMP000
                diagnostics.extend(
                    analyze_composition(
                        composition, registry, file=reported
                    ).diagnostics
                )
    return diagnostics


# -- driver -------------------------------------------------------------------


def _ran_prefixes(
    lint_self_pass, lint_functions, lint_compositions, lint_dataflow,
    lint_scenarios=False,
) -> tuple:
    prefixes: list[str] = []
    if lint_self_pass:
        prefixes += PASS_CODE_PREFIXES["self"]
    if lint_functions:
        prefixes += PASS_CODE_PREFIXES["functions"]
    if lint_compositions:
        prefixes += PASS_CODE_PREFIXES["compositions"]
    if lint_dataflow:
        prefixes += PASS_CODE_PREFIXES["dataflow"]
    if lint_scenarios:
        prefixes += PASS_CODE_PREFIXES["scenarios"]
    return tuple(prefixes)


def run_lint(
    *,
    lint_self_pass: bool,
    lint_functions: bool,
    lint_compositions: bool,
    lint_dataflow: bool = False,
    lint_scenarios: bool = False,
    paths: Optional[list[str]] = None,
    output_format: str = "text",
    strict: bool = False,
    baseline_path: Optional[str] = None,
    write_baseline: bool = False,
) -> tuple[int, str]:
    """Execute the lint command; returns ``(exit_code, report_text)``."""
    diagnostics = collect_diagnostics(
        lint_self_pass=lint_self_pass,
        lint_functions=lint_functions,
        lint_compositions=lint_compositions,
        lint_dataflow=lint_dataflow,
        lint_scenarios=lint_scenarios,
        paths=paths,
    )
    prefixes = _ran_prefixes(
        lint_self_pass, lint_functions, lint_compositions, lint_dataflow,
        lint_scenarios,
    )
    path = baseline_path or DEFAULT_BASELINE_PATH
    if write_baseline:
        merged = Baseline.from_diagnostics(diagnostics)
        if os.path.exists(path):
            # Preserve suppressions owned by passes that did not run;
            # stale entries for the passes that *did* run are pruned
            # simply by not carrying them over.
            previous = Baseline.load(path)
            for fingerprint, budget in previous.suppressions.items():
                code = fingerprint.split("::", 1)[0]
                if not code.startswith(prefixes):
                    merged.suppressions[fingerprint] = budget
        merged.write(path)
        return 0, (
            f"baseline with {len(merged.suppressions)} fingerprint(s) "
            f"written to {path}"
        )
    if os.path.exists(path):
        baseline = Baseline.load(path)
    else:
        baseline = Baseline()
    new, suppressed = baseline.filter(diagnostics)
    stale = (
        baseline.stale_fingerprints(diagnostics, code_prefixes=prefixes)
        if strict
        else []
    )
    if output_format == "json":
        report = render_json(new)
    elif output_format == "sarif":
        report = render_sarif(new)
    else:
        report = render_text(new)
        if suppressed:
            report += f"\n{len(suppressed)} finding(s) suppressed by baseline"
        if stale:
            listing = "\n".join(f"    {fingerprint}" for fingerprint in stale)
            report += (
                f"\n{len(stale)} stale baseline fingerprint(s) match no "
                f"current finding (strict mode fails; re-run with "
                f"--write-baseline to prune):\n{listing}"
            )
    has_new_error = any(d.severity == ERROR for d in new)
    failed = (bool(new) or bool(stale)) if strict else has_new_error
    return (1 if failed else 0), report
