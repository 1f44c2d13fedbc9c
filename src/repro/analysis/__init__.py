"""Static analysis over compute functions, compositions, and the repo.

Dandelion's leverage comes from properties the platform can verify
*before* code runs: compute functions issue no syscalls (§4.1), and
compositions are declarative DAGs the dispatcher can reason about ahead
of execution.  The dynamic purity guard
(:mod:`repro.functions.purity`) catches violations mid-invocation;
this package proves (a useful subset of) the same contract at
registration time, plus its companions:

- :mod:`repro.analysis.purity_check` — AST analysis of registered
  compute callables, following same-module helpers transitively, that
  rejects blocked-surface reaches (``os``/``socket``/``subprocess``/
  ``threading``), nondeterminism sources, global mutation, and
  generator entry points before the function ever runs;
- :mod:`repro.analysis.compositions` — one analyzer per composition
  graph: wasteful shapes (CMP: unused outputs, dead-end vertices,
  fan-out explosion, shadowing, never-written sets), cross-node races
  and producer/consumer contracts (RACE/CON) from the purity pass's
  read/write summaries, and the static cost envelope (COST,
  ``CompositionCostSummary``) that scenario lint's SCN007 reads;
- :mod:`repro.analysis.determinism_lint` — a self-lint over
  ``src/repro`` guarding the repo's byte-identical-output invariant
  (no wall clocks, no unseeded RNG, no set-ordered iteration, no
  missing ``__slots__`` on hot-path classes);
- :mod:`repro.analysis.scenario_lint` — SCN validation of scenario
  spec files.

All passes emit :class:`~repro.analysis.diagnostics.Diagnostic`
records; grandfathered findings live in a checked-in baseline file
(see :class:`~repro.analysis.diagnostics.Baseline`).  The CLI surface
is ``python -m repro lint`` and the registration hooks are
``Registry.register_function`` / ``register_composition`` with
``verify="warn"|"strict"``.
"""

from .diagnostics import (
    Baseline,
    Diagnostic,
    render_json,
    render_text,
)
from .compositions import (
    analyze_composition,
    analyze_dsl_source,
    extract_dsl_blocks,
)
from .determinism_lint import lint_self
from .purity_check import (
    PurityReport,
    verify_purity,
)

__all__ = [
    "Baseline",
    "Diagnostic",
    "render_json",
    "render_text",
    "analyze_composition",
    "analyze_dsl_source",
    "extract_dsl_blocks",
    "lint_self",
    "PurityReport",
    "verify_purity",
]
