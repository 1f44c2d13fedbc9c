"""Declarative scenario specifications (`repro.scenario` schema layer).

A :class:`ScenarioSpec` names everything that *determines the KPIs* of
one run: trace source × workload shape × fleet × fault profile ×
scheduling policy × seed.  Anything that cannot change the KPIs —
shard count, output paths — deliberately stays out of the spec and
lives on the engine call instead, so the determinism
contract reads: **same spec + same seed ⇒ byte-identical KpiRecord**
(under ``PYTHONHASHSEED=0``; see docs/scenarios.md).

Specs load from TOML files or plain dicts with defaulting and
unknown-key *rejection* (a typo'd knob must fail loudly, not silently
run the default), and serialize canonically: ``to_dict()`` emits every
field explicitly in declaration order, so two specs are equal iff
their canonical forms are equal, and ``parse → serialize → parse`` is
the identity (pinned by a hypothesis property in the test suite).

Policy/backend *names* in a spec resolve against the live registries
(:data:`repro.sched.ROUTING_POLICIES`, :data:`repro.backends.BACKEND_NAMES`)
and the core split against ``("static", "pi")`` via
:func:`validate_names` — shared by the engine and the SCN lint pass so
a spec never fails deep inside cluster assembly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import tomllib
from dataclasses import dataclass, field, fields
from typing import Optional


__all__ = [
    "SPEC_SCHEMA",
    "SpecError",
    "TraceSpec",
    "WorkloadSpec",
    "FleetSpec",
    "FaultSpec",
    "SchedSpec",
    "ScenarioSpec",
    "scenario_from_dict",
    "scenario_from_toml",
    "validate_names",
    "bundled_spec_dir",
    "bundled_specs",
    "load_spec",
]

SPEC_SCHEMA = "repro-scenario/v1"

_TRACE_KINDS = ("synthetic", "streamed")
_PLATFORMS = ("dandelion", "faas")
# "static" keeps the spec'd split; "pi" enables the worker control plane.
_CORE_SPLITS = ("static", "pi")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class SpecError(ValueError):
    """A scenario spec failed to parse or validate."""


# -- field coercion -----------------------------------------------------------


def _coerce(value, spec_field, where: str):
    """Type-check one field value; ints widen to declared floats."""
    declared = spec_field.type
    label = f"{where}.{spec_field.name}"
    if declared == "bool":
        if not isinstance(value, bool):
            raise SpecError(f"{label}: expected a boolean, got {value!r}")
        return value
    if declared == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"{label}: expected an integer, got {value!r}")
        return value
    if declared in ("float", "Optional[float]"):
        if value is None and declared.startswith("Optional"):
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"{label}: expected a number, got {value!r}")
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            raise SpecError(f"{label}: must be finite")
        return value
    if declared == "str":
        if not isinstance(value, str):
            raise SpecError(f"{label}: expected a string, got {value!r}")
        return value
    raise SpecError(f"{label}: unsupported field type {declared!r}")


def _build_section(cls, payload, where: str):
    """Instantiate a section dataclass from a dict, rejecting unknowns."""
    if not isinstance(payload, dict):
        raise SpecError(f"{where}: expected a table, got {type(payload).__name__}")
    allowed = {f.name: f for f in fields(cls)}
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise SpecError(
            f"{where}: unknown key(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(allowed))})"
        )
    return cls(**{
        key: _coerce(value, allowed[key], where)
        for key, value in payload.items()
    })


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


# -- sections -----------------------------------------------------------------


@dataclass(frozen=True)
class TraceSpec:
    """Where requests come from.

    ``synthetic``: seeded Poisson arrivals over ``duration_seconds`` at
    ``rps`` (absolute) or ``rps_per_worker × fleet.workers``, spread
    over ``apps`` Zipf-popular applications.  ``streamed``: an
    Azure-shaped streamed trace at ``scale`` × the 1× reference sample
    (``functions_base`` functions, ``rps_base`` aggregate rps), replayed
    through the sharded simulator in ``window_seconds`` batches.

    The arrival stream is drawn from ``Rng(seed + seed_offset)``; with
    ``reseed_per_fleet`` the offset is the fleet size instead, so every
    policy arm of a sweep sees the *same* request stream per fleet size
    (the §6.2 discipline).
    """

    kind: str = "synthetic"
    rps: float = 0.0
    rps_per_worker: float = 0.0
    duration_seconds: float = 4.0
    apps: int = 1
    zipf_skew: float = 1.0
    seed_offset: int = 17
    reseed_per_fleet: bool = False
    # streamed kind only:
    scale: float = 1.0
    functions_base: int = 100
    rps_base: float = 12.0
    window_seconds: float = 0.5

    def check(self) -> None:
        _require(self.kind in _TRACE_KINDS,
                 f"trace.kind: {self.kind!r} is not one of {_TRACE_KINDS}")
        _require(self.duration_seconds > 0, "trace.duration_seconds: must be > 0")
        _require(self.apps >= 1, "trace.apps: must be >= 1")
        _require(self.rps >= 0 and self.rps_per_worker >= 0,
                 "trace: request rates must be >= 0")
        if self.kind == "synthetic":
            _require((self.rps > 0) != (self.rps_per_worker > 0),
                     "trace: exactly one of rps / rps_per_worker must be > 0")
        else:
            _require(self.rps == 0 and self.rps_per_worker == 0,
                     "trace: streamed load is rps_base x scale; "
                     "rps / rps_per_worker must stay 0")
            _require(self.scale > 0, "trace.scale: must be > 0")
            _require(self.functions_base >= 1, "trace.functions_base: must be >= 1")
            _require(self.rps_base > 0, "trace.rps_base: must be > 0")
            _require(self.window_seconds > 0, "trace.window_seconds: must be > 0")
        _require(self.zipf_skew >= 0, "trace.zipf_skew: must be >= 0")


@dataclass(frozen=True)
class WorkloadSpec:
    """The function(s) the trace invokes.

    One pure echo compute function per app (``<name>_fn``, or
    ``<name>_fn_<i>`` when ``trace.apps > 1``) wrapped in a single-stage
    composition (``<name>`` / ``<name>_<i>``), costing
    ``compute_seconds`` per invocation; ``binary_mib > 0`` gives each
    app a heavy sandbox binary so cold loads dominate (the §6.2 shape).
    """

    name: str = "echo"
    compute_seconds: float = 4e-3
    binary_mib: float = 0.0
    payload: str = "ping"

    def check(self) -> None:
        _require(bool(_NAME_RE.match(self.name)),
                 f"workload.name: {self.name!r} is not an identifier")
        _require(self.compute_seconds > 0, "workload.compute_seconds: must be > 0")
        _require(self.binary_mib >= 0, "workload.binary_mib: must be >= 0")


@dataclass(frozen=True)
class FleetSpec:
    """Cluster size and per-worker shape."""

    workers: int = 4
    cores: int = 4
    backend: str = "kvm"
    machine: str = "linux"
    platform: str = "dandelion"  # streamed traces: dandelion | faas

    def check(self) -> None:
        _require(self.workers >= 1, "fleet.workers: must be >= 1")
        _require(self.cores >= 1, "fleet.cores: must be >= 1")
        _require(self.platform in _PLATFORMS,
                 f"fleet.platform: {self.platform!r} is not one of {_PLATFORMS}")


@dataclass(frozen=True)
class FaultSpec:
    """What goes wrong, and how hard the platform may fight back.

    ``transient_rate`` crashes individual task executions (absorbed by
    up to ``max_retries`` backoff retries under ``deadline_seconds``);
    ``mttf_seconds > 0`` arms the fail-stop injector (exponential
    MTTF/MTTR, seeded from ``seed + seed_offset``); the ``limp_*`` knobs
    add gray-failure limp cycles (§6.3) on the same injector.
    """

    transient_rate: float = 0.0
    max_retries: int = 2
    deadline_seconds: Optional[float] = None
    mttf_seconds: float = 0.0
    mttr_seconds: float = 0.25
    limp_mttf_seconds: float = 0.0
    limp_duration_seconds: float = 0.0
    limp_severity: float = 1.0
    seed_offset: int = 29

    def check(self) -> None:
        _require(0.0 <= self.transient_rate < 1.0,
                 "faults.transient_rate: must be in [0, 1)")
        _require(self.max_retries >= 0, "faults.max_retries: must be >= 0")
        if self.deadline_seconds is not None:
            _require(self.deadline_seconds > 0,
                     "faults.deadline_seconds: must be > 0 (or omitted)")
        _require(self.mttf_seconds >= 0, "faults.mttf_seconds: must be >= 0")
        _require(self.mttr_seconds > 0, "faults.mttr_seconds: must be > 0")
        _require(self.limp_mttf_seconds >= 0,
                 "faults.limp_mttf_seconds: must be >= 0")
        _require(self.limp_duration_seconds >= 0,
                 "faults.limp_duration_seconds: must be >= 0")
        _require(self.limp_severity >= 1.0,
                 "faults.limp_severity: must be >= 1 (1 = healthy speed)")


@dataclass(frozen=True)
class SchedSpec:
    """Scheduling knobs, by registry name (see docs/scheduling.md)."""

    routing: str = "least_loaded"  # ROUTING_POLICIES
    cores: str = "static"          # _CORE_SPLITS
    latency_health: bool = False
    hedge: bool = False
    hedge_percentile: float = 95.0
    hedge_budget_fraction: float = 0.05
    quarantine_ttl_seconds: float = 1.0

    def check(self) -> None:
        _require(0.0 < self.hedge_percentile < 100.0,
                 "sched.hedge_percentile: must be in (0, 100)")
        _require(0.0 <= self.hedge_budget_fraction <= 1.0,
                 "sched.hedge_budget_fraction: must be in [0, 1]")
        _require(self.quarantine_ttl_seconds > 0,
                 "sched.quarantine_ttl_seconds: must be > 0")


_SECTIONS = (
    ("trace", TraceSpec),
    ("workload", WorkloadSpec),
    ("fleet", FleetSpec),
    ("faults", FaultSpec),
    ("sched", SchedSpec),
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified, seedable scenario."""

    name: str = "scenario"
    description: str = ""
    seed: int = 0
    trace: TraceSpec = field(default_factory=TraceSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    sched: SchedSpec = field(default_factory=SchedSpec)

    # -- validation -----------------------------------------------------------

    def check(self) -> None:
        _require(bool(_NAME_RE.match(self.name)),
                 f"name: {self.name!r} is not an identifier")
        for section_name, _cls in _SECTIONS:
            getattr(self, section_name).check()
        if self.trace.kind == "streamed":
            _require(self.trace.apps == 1,
                     "trace.apps: streamed traces carry their own app "
                     "population; apps must stay 1")
            _require(self.faults.mttf_seconds == 0
                     and self.faults.transient_rate == 0
                     and self.faults.limp_mttf_seconds == 0,
                     "faults: fault injection is not supported on the "
                     "streamed (sharded) path yet")

    # -- derived knobs --------------------------------------------------------

    def offered_rps(self) -> float:
        """Aggregate synthetic request rate, resolved against the fleet."""
        if self.trace.rps > 0:
            return self.trace.rps
        return self.trace.rps_per_worker * self.fleet.workers

    def trace_seed(self) -> int:
        if self.trace.reseed_per_fleet:
            return self.seed + self.fleet.workers
        return self.seed + self.trace.seed_offset

    def fault_seed(self) -> int:
        return self.seed + self.faults.seed_offset

    # -- canonical serialization ----------------------------------------------

    def to_dict(self) -> dict:
        """Complete canonical form: every field, declaration order.

        ``None`` values (an unset deadline) are omitted — absence *is*
        the canonical spelling of "unset", so the round trip is exact.
        """
        payload = {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
        }
        for section_name, cls in _SECTIONS:
            section = getattr(self, section_name)
            payload[section_name] = {
                f.name: getattr(section, f.name)
                for f in fields(cls)
                if getattr(section, f.name) is not None
            }
        return payload

    def to_toml(self) -> str:
        payload = self.to_dict()
        lines = [
            f"schema = {_toml_value(payload['schema'])}",
            f"name = {_toml_value(payload['name'])}",
            f"description = {_toml_value(payload['description'])}",
            f"seed = {_toml_value(payload['seed'])}",
        ]
        for section_name, _cls in _SECTIONS:
            lines.append("")
            lines.append(f"[{section_name}]")
            for key, value in payload[section_name].items():
                lines.append(f"{key} = {_toml_value(value)}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Stable content hash of the canonical form."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- overrides ------------------------------------------------------------

    def with_overrides(self, overrides: dict) -> "ScenarioSpec":
        """A new spec with dotted-path overrides applied and re-checked.

        Keys are top-level fields (``seed``) or ``section.field`` paths
        (``sched.routing``, ``fleet.workers``); values are type-checked
        against the target field.
        """
        spec = self
        for path, value in overrides.items():
            spec = spec._with_override(path, value)
        spec.check()
        return spec

    def _with_override(self, path: str, value) -> "ScenarioSpec":
        top = {f.name: f for f in fields(ScenarioSpec)}
        if "." not in path:
            if path not in top or path in dict(_SECTIONS):
                raise SpecError(f"override {path!r}: unknown scalar field")
            return dataclasses.replace(
                self, **{path: _coerce(value, top[path], "spec")}
            )
        section_name, _, field_name = path.partition(".")
        sections = dict(_SECTIONS)
        if section_name not in sections:
            raise SpecError(f"override {path!r}: unknown section "
                            f"{section_name!r}")
        cls = sections[section_name]
        allowed = {f.name: f for f in fields(cls)}
        if field_name not in allowed:
            raise SpecError(f"override {path!r}: unknown field "
                            f"{field_name!r} in [{section_name}]")
        section = getattr(self, section_name)
        updated = dataclasses.replace(
            section,
            **{field_name: _coerce(value, allowed[field_name], section_name)},
        )
        return dataclasses.replace(self, **{section_name: updated})


# -- parsing ------------------------------------------------------------------


def scenario_from_dict(payload: dict) -> ScenarioSpec:
    """Build and validate a :class:`ScenarioSpec` from a plain dict."""
    if not isinstance(payload, dict):
        raise SpecError(f"spec: expected a table, got {type(payload).__name__}")
    payload = dict(payload)
    schema = payload.pop("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        raise SpecError(f"schema: expected {SPEC_SCHEMA!r}, got {schema!r}")
    top = {f.name: f for f in fields(ScenarioSpec)}
    sections = dict(_SECTIONS)
    kwargs = {}
    for key, value in payload.items():
        if key in sections:
            kwargs[key] = _build_section(sections[key], value, key)
        elif key in top:
            kwargs[key] = _coerce(value, top[key], "spec")
        else:
            raise SpecError(
                f"spec: unknown key {key!r} "
                f"(known: {', '.join(sorted(top))})"
            )
    spec = ScenarioSpec(**kwargs)
    spec.check()
    return spec


def scenario_from_toml(text: str) -> ScenarioSpec:
    """Parse TOML text into a validated :class:`ScenarioSpec`."""
    return scenario_from_dict(parse_toml(text))


def parse_toml(text: str) -> dict:
    """TOML → dict via stdlib :mod:`tomllib`; syntax errors are SpecErrors."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"TOML parse error: {exc}") from exc


def _toml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise SpecError("spec floats must be finite")
        text = repr(value)
        return text if ("." in text or "e" in text or "E" in text) else text + ".0"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise SpecError(f"cannot serialize {value!r} to TOML")


# -- registry-name validation -------------------------------------------------


def validate_names(spec: ScenarioSpec) -> list:
    """Resolve the spec's policy/backend names against the registries.

    Returns ``[(code, message), ...]`` — empty when every name resolves.
    Shared by the engine (raises on the first entry) and the SCN lint
    pass (reports all of them), so the two can never disagree.
    """
    from ..backends.costs import BACKEND_NAMES, BACKEND_SPECS
    from ..sched.routing import ROUTING_POLICIES

    problems = []
    if spec.sched.routing not in ROUTING_POLICIES:
        problems.append((
            "SCN002",
            f"sched.routing: unknown routing policy {spec.sched.routing!r} "
            f"(registered: {', '.join(sorted(ROUTING_POLICIES))})",
        ))
    if spec.sched.cores not in _CORE_SPLITS:
        problems.append((
            "SCN003",
            f"sched.cores: unknown core split {spec.sched.cores!r} "
            f"(expected one of: {', '.join(_CORE_SPLITS)})",
        ))
    if spec.fleet.backend not in BACKEND_NAMES:
        problems.append((
            "SCN005",
            f"fleet.backend: unknown backend {spec.fleet.backend!r} "
            f"(registered: {', '.join(BACKEND_NAMES)})",
        ))
    if spec.fleet.machine not in BACKEND_SPECS:
        problems.append((
            "SCN005",
            f"fleet.machine: unknown machine {spec.fleet.machine!r} "
            f"(registered: {', '.join(sorted(BACKEND_SPECS))})",
        ))
    return problems


# -- bundled specs ------------------------------------------------------------


def bundled_spec_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")


def bundled_specs() -> dict:
    """Bundled scenario names → spec file paths, sorted by name."""
    directory = bundled_spec_dir()
    out = {}
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".toml"):
            out[entry[:-5]] = os.path.join(directory, entry)
    return out


def load_spec(ref: str) -> ScenarioSpec:
    """Load a bundled scenario by name, else a spec file by path.

    Bundled names resolve first, so nothing in the working directory
    can shadow one; a user file of the same name stays reachable as
    ``./name``.
    """
    bundled = bundled_specs()
    path = bundled.get(ref, ref)
    if not os.path.isfile(path):
        if os.path.exists(path):
            raise SpecError(f"spec path {ref!r} is not a file")
        raise SpecError(
            f"no spec file {ref!r} and no bundled scenario of that name "
            f"(bundled: {', '.join(bundled) or 'none'})"
        )
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return scenario_from_toml(text)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc
