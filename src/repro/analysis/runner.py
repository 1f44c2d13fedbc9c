"""The ``python -m repro lint`` driver.

Collects diagnostics across the four passes (``self`` determinism lint,
``functions`` purity, ``compositions`` CMP/RACE/CON/COST analysis,
``scenarios`` spec validation), applies the checked-in baseline, renders
text/JSON, and computes the exit code:

- default mode fails (exit 1) on any *new* error-severity finding;
- ``--strict`` fails on any new finding at all, and — when every pass
  ran — on *stale* baseline entries: a suppression matching nothing is
  dead weight that silently re-admits the finding when someone
  reintroduces it (CI runs strict);
- ``--write-baseline`` regenerates the suppression file from the
  current findings of a whole run (the only sanctioned way to
  grandfather a finding — codes are never skipped wholesale).

The function/composition corpus is the built-in demo registry: the
three paper applications (log processing, image compression, Text2SQL)
registered on a throwaway worker, plus any composition blocks embedded
in files passed on the command line (``examples/*.py`` in CI).
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from .compositions import analyze_composition, analyze_dsl_source, extract_dsl_blocks
from .determinism_lint import lint_self
from .diagnostics import Baseline, Diagnostic, ERROR, render_json, render_text
from .purity_check import verify_purity
from .scenario_lint import iter_bundled_specs, lint_scenario_text

__all__ = [
    "run_lint",
    "collect_diagnostics",
    "demo_registry",
    "DEFAULT_BASELINE_PATH",
    "PASSES",
]

DEFAULT_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "self_lint_baseline.json"
)

PASSES = ("self", "functions", "compositions", "scenarios")


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
    passes: Iterable[str] = PASSES,
    *,
    paths: Optional[list[str]] = None,
    registry=None,
) -> list[Diagnostic]:
    """Run the selected passes and pool their findings.

    ``*.toml`` paths are scenario specs; every other path is scanned
    for embedded composition blocks.
    """
    passes = frozenset(passes)
    if not passes or not passes <= frozenset(PASSES):
        raise ValueError(
            f"invalid choice of lint passes {', '.join(sorted(passes)) or '(none)'}"
            f" (choose from {', '.join(PASSES)})"
        )
    paths = list(paths or ())
    diagnostics: list[Diagnostic] = []
    if "self" in passes:
        diagnostics.extend(lint_self())
    if registry is None and passes & {"functions", "compositions"}:
        registry = demo_registry()
    if "functions" in passes:
        for name in registry.function_names:
            diagnostics.extend(verify_purity(registry.function(name)).diagnostics)
    if "compositions" in passes:
        for name in registry.composition_names:
            diagnostics.extend(
                analyze_composition(registry.composition(name), registry).diagnostics
            )
        for path in paths:
            if not path.endswith(".toml"):
                reported, text = _read(path)
                for source, offset in extract_dsl_blocks(text):
                    _composition, found = analyze_dsl_source(
                        source, library=registry.compositions, registry=registry,
                        file=reported, line_offset=offset,
                    )
                    diagnostics.extend(found)
    if "scenarios" in passes:
        specs = list(iter_bundled_specs())
        specs += [_read(path) for path in paths if path.endswith(".toml")]
        for reported, text in specs:
            diagnostics.extend(lint_scenario_text(text, reported))
    return diagnostics


def _read(path: str) -> tuple[str, str]:
    """``(reported_path, text)`` of one file named on the command line."""
    with open(path, "r", encoding="utf-8") as handle:
        return path.replace(os.sep, "/"), handle.read()


# -- driver -------------------------------------------------------------------


def run_lint(
    passes: Iterable[str] = PASSES,
    *,
    paths: Optional[list[str]] = None,
    output_format: str = "text",
    strict: bool = False,
    baseline_path: Optional[str] = None,
    write_baseline: bool = False,
) -> tuple[int, str]:
    """Execute the lint command; returns ``(exit_code, report_text)``.

    The baseline is one file for the whole run: writing it, and judging
    its entries stale, need the findings of every pass.
    """
    passes = frozenset(passes)
    whole_run = passes == frozenset(PASSES)
    if write_baseline and not whole_run:
        raise ValueError("--write-baseline needs every pass; drop --only")
    diagnostics = collect_diagnostics(passes, paths=paths)
    path = baseline_path or DEFAULT_BASELINE_PATH
    if write_baseline:
        baseline = Baseline.from_diagnostics(diagnostics)
        baseline.write(path)
        return 0, (
            f"baseline with {len(baseline.suppressions)} fingerprint(s) "
            f"written to {path}"
        )
    baseline = Baseline.load(path) if os.path.exists(path) else Baseline()
    new, suppressed = baseline.filter(diagnostics)
    stale = (
        baseline.stale_fingerprints(diagnostics) if strict and whole_run else []
    )
    if output_format == "json":
        report = render_json(new)
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
