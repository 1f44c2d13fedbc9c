"""Shared diagnostics core for the static-analysis passes.

Every pass — the purity verifier, the composition analyzer, the
determinism self-lint, the scenario-spec linter — reports findings as
:class:`Diagnostic` records: a stable code (a family prefix such as
``PUR``/``CMP``/``DET`` plus a number), a severity, a location (file,
line, enclosing symbol), a message, and an optional fix hint.  Renderers produce the two CLI output formats, and
:class:`Baseline` implements suppression of grandfathered findings.

Baselines are keyed by *fingerprint* — ``code::file::symbol`` with a
count — rather than line numbers, so unrelated edits to a file do not
invalidate them.  A finding is "new" when its fingerprint is absent
from the baseline, or appears more times than the baseline allows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "Diagnostic",
    "Baseline",
    "ERROR",
    "WARNING",
    "render_text",
    "render_json",
]

# Severities, in increasing order of, well, severity.
WARNING = "warning"
ERROR = "error"
_SEVERITY_ORDER = {WARNING: 0, ERROR: 1}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass."""

    code: str                       # e.g. "PUR001"
    severity: str                   # "error" | "warning"
    message: str
    file: Optional[str] = None      # repo-relative path when known
    line: Optional[int] = None      # 1-based line within file
    symbol: Optional[str] = None    # enclosing function/composition/class
    hint: Optional[str] = None      # how to fix or silence it

    def __post_init__(self):
        if self.severity not in _SEVERITY_ORDER:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used by baseline suppression."""
        return f"{self.code}::{self.file or '<none>'}::{self.symbol or '<none>'}"

    def location(self) -> str:
        parts = []
        if self.file:
            parts.append(self.file)
        if self.line is not None:
            parts.append(str(self.line))
        where = ":".join(parts) if parts else "<unknown>"
        if self.symbol:
            where += f" ({self.symbol})"
        return where

    def to_dict(self) -> dict:
        """Stable-key mapping (JSON report rows)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "symbol": self.symbol,
            "hint": self.hint,
        }


def sort_key(diagnostic: Diagnostic):
    """Deterministic report order: file, line, code — errors first on ties."""
    return (
        diagnostic.file or "",
        diagnostic.line or 0,
        -_SEVERITY_ORDER[diagnostic.severity],
        diagnostic.code,
        diagnostic.message,
    )


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """Human-readable report, one finding per line plus a summary."""
    ordered = sorted(diagnostics, key=sort_key)
    lines = []
    for diag in ordered:
        lines.append(f"{diag.location()}: {diag.severity} {diag.code}: {diag.message}")
        if diag.hint:
            lines.append(f"    hint: {diag.hint}")
    errors = sum(1 for d in ordered if d.severity == ERROR)
    warnings = len(ordered) - errors
    lines.append(f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    """Machine-readable report (stable key order, sorted findings)."""
    ordered = sorted(diagnostics, key=sort_key)
    payload = {
        "schema": "repro-lint/v1",
        "errors": sum(1 for d in ordered if d.severity == ERROR),
        "warnings": sum(1 for d in ordered if d.severity == WARNING),
        "diagnostics": [
            dict(d.to_dict(), fingerprint=d.fingerprint) for d in ordered
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


@dataclass
class Baseline:
    """Grandfathered findings, loaded from / written to a JSON file.

    The file maps fingerprints to allowed occurrence counts::

        {
          "schema": "repro-lint-baseline/v1",
          "suppressions": {"DET001::src/repro/__main__.py::_run_one": 2}
        }

    Suppression is per-fingerprint with a budget: if a file/symbol pair
    grows *more* findings of the same code than the baseline records,
    the extras surface as new.
    """

    suppressions: dict[str, int] = field(default_factory=dict)

    SCHEMA = "repro-lint-baseline/v1"

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("schema") != cls.SCHEMA:
            raise ValueError(f"{path}: not a {cls.SCHEMA} baseline file")
        suppressions = payload.get("suppressions", {})
        if not isinstance(suppressions, dict):
            raise ValueError(f"{path}: suppressions must be an object")
        return cls({str(k): int(v) for k, v in suppressions.items()})

    @classmethod
    def from_diagnostics(cls, diagnostics: Iterable[Diagnostic]) -> "Baseline":
        suppressions: dict[str, int] = {}
        for diag in diagnostics:
            suppressions[diag.fingerprint] = suppressions.get(diag.fingerprint, 0) + 1
        return cls(suppressions)

    def write(self, path: str) -> None:
        payload = {
            "schema": self.SCHEMA,
            "suppressions": dict(sorted(self.suppressions.items())),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    def filter(
        self, diagnostics: Iterable[Diagnostic]
    ) -> tuple[list[Diagnostic], list[Diagnostic]]:
        """Split findings into (new, suppressed).

        Findings sharing a fingerprint consume the baseline budget in
        report order, so the split is deterministic.
        """
        budget = dict(self.suppressions)
        new: list[Diagnostic] = []
        suppressed: list[Diagnostic] = []
        for diag in sorted(diagnostics, key=sort_key):
            remaining = budget.get(diag.fingerprint, 0)
            if remaining > 0:
                budget[diag.fingerprint] = remaining - 1
                suppressed.append(diag)
            else:
                new.append(diag)
        return new, suppressed

    def stale_fingerprints(self, diagnostics: Iterable[Diagnostic]) -> list[str]:
        """Baseline entries matching *no* current finding at all.

        A stale entry is dead weight that silently re-admits a finding
        the moment someone reintroduces it, so strict mode treats
        staleness as a failure.  Only meaningful against the findings
        of a whole run (see the runner): a pass that did not run
        observes none of its own suppressions.
        """
        observed = {diag.fingerprint for diag in diagnostics}
        return [f for f in sorted(self.suppressions) if f not in observed]
