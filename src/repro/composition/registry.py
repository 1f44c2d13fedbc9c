"""Function and composition registry.

The dispatcher "maintains a registry of all registered composition
DAGs, function binaries, and associated metadata" (§5).  Users register
a *function binary* (here: a Python callable standing in for the
compiled artifact, plus the metadata the platform needs — declared
memory requirement, binary size for load-cost modelling, engine type)
and compositions referencing those binaries by name.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from .graph import Composition

__all__ = [
    "FunctionBinary",
    "Registry",
    "RegistryError",
    "PurityVerificationError",
    "CompositionVerificationError",
]

DEFAULT_MEMORY_LIMIT = 64 * 1024 * 1024  # bytes, like a Lambda memory setting
DEFAULT_BINARY_SIZE = 256 * 1024         # bytes of executable to load


class RegistryError(Exception):
    """Raised for unknown or conflicting registrations."""


class PurityVerificationError(RegistryError):
    """Static purity verification rejected a function at registration.

    Carries the error-severity diagnostics so callers (and tests) can
    inspect exactly which contract the function would have violated
    mid-invocation.
    """

    def __init__(self, message: str, diagnostics):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class CompositionVerificationError(RegistryError):
    """Static dataflow analysis rejected a composition at registration.

    Carries the error-severity RACE/CON/COST diagnostics so callers can
    see exactly which cross-node contract the composition would have
    broken at run time.
    """

    def __init__(self, message: str, diagnostics):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class FunctionBinary:
    """A registered compute function and its platform metadata.

    ``entry_point`` is the user's pure function: it receives the
    :class:`~repro.data.vfs.VirtualFileSystem` for its invocation and
    must produce outputs only through it (purity is enforced by the
    compute-function harness).  ``memory_limit`` is the user-declared
    context size ("like in AWS Lambda"); ``binary_size`` drives the
    load-from-disk cost model; ``compute_cost`` optionally overrides
    the modelled execution time for an invocation (seconds), either as
    a constant or a callable of the input size in bytes.
    """

    name: str
    entry_point: Callable
    memory_limit: int = DEFAULT_MEMORY_LIMIT
    binary_size: int = DEFAULT_BINARY_SIZE
    compute_cost: "Optional[float | Callable[[int], float]]" = None
    language: str = "c"

    def __post_init__(self):
        if not self.name:
            raise RegistryError("function name must be non-empty")
        if not callable(self.entry_point):
            raise RegistryError("entry_point must be callable")
        if self.memory_limit <= 0:
            raise RegistryError("memory_limit must be positive")
        if self.binary_size <= 0:
            raise RegistryError("binary_size must be positive")

    def modelled_compute_seconds(self, input_bytes: int) -> Optional[float]:
        """Modelled execution time for this binary, if one is declared."""
        if self.compute_cost is None:
            return None
        if callable(self.compute_cost):
            return float(self.compute_cost(input_bytes))
        return float(self.compute_cost)


class Registry:
    """Registered function binaries and compositions, by name."""

    def __init__(self):
        self._functions: dict[str, FunctionBinary] = {}
        self._compositions: dict[str, Composition] = {}

    # -- functions --------------------------------------------------------

    def register_function(
        self, binary: FunctionBinary, verify: Optional[str] = None
    ) -> None:
        """Register a function binary, optionally verifying purity first.

        ``verify`` selects the static-verification mode (§4.1: compute
        functions "do not issue syscalls" — proven here *before* the
        function ever runs, instead of terminating it mid-invocation):

        - ``None`` (default): no static pass, dynamic guard only;
        - ``"warn"``: run the verifier, surface findings as
          :class:`~repro.analysis.purity_check.PurityWarning`;
        - ``"strict"``: reject the registration with
          :class:`PurityVerificationError` on any error-severity
          finding.
        """
        if verify not in (None, "warn", "strict"):
            raise RegistryError(
                f"unknown verify mode {verify!r}; expected 'warn' or 'strict'"
            )
        if binary.name in self._functions:
            raise RegistryError(f"function {binary.name!r} already registered")
        if verify is not None:
            # Imported lazily: the analysis package depends on the
            # composition model, not the other way around.
            from ..analysis.diagnostics import render_text
            from ..analysis.purity_check import PurityWarning, verify_purity

            report = verify_purity(binary)
            if verify == "strict" and not report.ok:
                raise PurityVerificationError(
                    f"function {binary.name!r} failed static purity "
                    f"verification:\n{render_text(report.errors)}",
                    report.errors,
                )
            if report.diagnostics:
                warnings.warn(
                    f"function {binary.name!r}: "
                    f"{render_text(report.diagnostics)}",
                    PurityWarning,
                    stacklevel=2,
                )
        self._functions[binary.name] = binary

    def function(self, name: str) -> FunctionBinary:
        try:
            return self._functions[name]
        except KeyError:
            raise RegistryError(f"unknown function {name!r}") from None

    def has_function(self, name: str) -> bool:
        return name in self._functions

    @property
    def function_names(self) -> list[str]:
        return sorted(self._functions)

    # -- compositions -------------------------------------------------------

    def register_composition(
        self, composition: Composition, verify: Optional[str] = None
    ) -> None:
        """Register a composition, optionally dataflow-verifying it first.

        ``verify`` selects the whole-composition static analysis
        (:mod:`repro.analysis.compositions`) mode:

        - ``None`` (default): structural validation only;
        - ``"warn"``: run the analyzer, surface findings as
          :class:`~repro.analysis.purity_check.PurityWarning`;
        - ``"strict"``: reject the registration with
          :class:`CompositionVerificationError` on any error-severity
          RACE/CON/COST finding.
        """
        if verify not in (None, "warn", "strict"):
            raise RegistryError(
                f"unknown verify mode {verify!r}; expected 'warn' or 'strict'"
            )
        if composition.name in self._compositions:
            raise RegistryError(
                f"composition {composition.name!r} already registered"
            )
        missing = [
            name
            for name in sorted(composition.required_functions())
            if name not in self._functions
        ]
        if missing:
            raise RegistryError(
                f"composition {composition.name!r} references unregistered "
                f"functions: {', '.join(missing)}"
            )
        if verify is not None:
            from ..analysis.compositions import analyze_composition
            from ..analysis.diagnostics import render_text
            from ..analysis.purity_check import PurityWarning

            report = analyze_composition(composition, self)
            if verify == "strict" and not report.ok:
                errors = [
                    d for d in report.diagnostics if d.severity == "error"
                ]
                raise CompositionVerificationError(
                    f"composition {composition.name!r} failed static "
                    f"dataflow verification:\n{render_text(errors)}",
                    errors,
                )
            if report.diagnostics:
                warnings.warn(
                    f"composition {composition.name!r}: "
                    f"{render_text(report.diagnostics)}",
                    PurityWarning,
                    stacklevel=2,
                )
        self._compositions[composition.name] = composition

    def composition(self, name: str) -> Composition:
        try:
            return self._compositions[name]
        except KeyError:
            raise RegistryError(f"unknown composition {name!r}") from None

    def has_composition(self, name: str) -> bool:
        return name in self._compositions

    @property
    def composition_names(self) -> list[str]:
        return sorted(self._compositions)

    @property
    def compositions(self) -> dict[str, Composition]:
        """Mapping view used as the DSL nesting library."""
        return dict(self._compositions)
