"""Generic traditional-FaaS platform model (the paper's baselines).

Firecracker, gVisor, Spin/Wasmtime and Hyperlight all share the same
architecture from the evaluation's point of view (§7.1 baselines): an
HTTP relay routes each request to a *sandbox*; hot requests reuse a
running sandbox, cold requests pay sandbox creation on the critical
path; all sandboxes are multiplexed over the machine's cores by the OS
scheduler (processor sharing + context switches).  What differs per
platform is the cost profile: cold-start latency, per-request overhead,
compute slowdown, and per-sandbox memory footprint.

Functions are modelled as sequences of *phases* — ``compute`` phases
burn CPU (scaled by the platform's slowdown), ``io`` phases block
without using CPU — which is how the mixed compute/I-O workloads of
§7.5–7.6 are expressed on the baselines.

Each request is *hot* with a fixed probability ``hot_ratio`` (the
97%-hot setting justified by the Azure trace, §7.3): one
``rng.bernoulli(hot_ratio)`` draw per request, at arrival.  Hot
requests are served by a standing pool of pre-provisioned sandboxes
(8 per function, charged to committed memory at registration); a cold
request boots a fresh sandbox that is torn down after use.  The
Knative keep-alive memory behaviour of Figs 1 and 10 is modelled by
the sharded trace replay's lean FaaS worker
(:mod:`repro.sim.sharded.shard`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..sim.core import Environment
from ..sim.cpu import ProcessorSharingCpu
from ..sim.distributions import Rng
from ..sim.metrics import LatencyRecorder, TimeSeries

__all__ = [
    "Phase",
    "compute_phase",
    "io_phase",
    "PlatformSpec",
    "FunctionModel",
    "FaasPlatform",
    "RequestRecord",
]

MiB = 1024 * 1024

# Pre-provisioned hot sandboxes per function while hot_ratio > 0.
_HOT_POOL_SIZE = 8


@dataclass(frozen=True)
class Phase:
    """One stage of a function's execution."""

    kind: str      # "compute" or "io"
    seconds: float

    def __post_init__(self):
        if self.kind not in ("compute", "io"):
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.seconds < 0:
            raise ValueError("phase duration must be non-negative")


def compute_phase(seconds: float) -> Phase:
    return Phase("compute", seconds)


def io_phase(seconds: float) -> Phase:
    return Phase("io", seconds)


@dataclass(frozen=True)
class PlatformSpec:
    """Cost profile of one baseline platform."""

    name: str
    cold_start_seconds: float
    hot_start_seconds: float
    compute_slowdown: float = 1.0
    sandbox_memory_bytes: int = 128 * MiB
    context_switch_seconds: float = 5e-6
    # Extra cold-start cost per MiB of sandbox memory: snapshot restores
    # demand-page the guest working set on first touch (§2.3 attributes
    # >8ms to "snapshot demand paging and guest-host connection
    # re-establishment", growing with the function's footprint).
    cold_paging_seconds_per_mib: float = 0.0

    def cold_start_total_seconds(self, memory_bytes: int) -> float:
        return self.cold_start_seconds + self.cold_paging_seconds_per_mib * (
            memory_bytes / MiB
        )


@dataclass(frozen=True)
class FunctionModel:
    """A function as the baseline platforms see it: its phases.  Its
    sandbox commits the platform's ``sandbox_memory_bytes``."""

    name: str
    phases: tuple[Phase, ...]

    @property
    def compute_seconds(self) -> float:
        return sum(p.seconds for p in self.phases if p.kind == "compute")

    @property
    def io_seconds(self) -> float:
        return sum(p.seconds for p in self.phases if p.kind == "io")


@dataclass(frozen=True)
class RequestRecord:
    """Telemetry for one completed request."""

    function_name: str
    arrived_at: float
    finished_at: float
    cold: bool

    @property
    def latency(self) -> float:
        return self.finished_at - self.arrived_at


class FaasPlatform:
    """A baseline FaaS worker node serving a fixed share of hot requests."""

    def __init__(
        self,
        env: Environment,
        spec: PlatformSpec,
        cores: int,
        hot_ratio: float,
        rng: Rng,
    ):
        if not 0.0 <= hot_ratio <= 1.0:
            raise ValueError(f"hot_ratio {hot_ratio} out of range")
        self.env = env
        self.spec = spec
        self.cores = cores
        self.hot_ratio = hot_ratio
        self.rng = rng
        self.cpu = ProcessorSharingCpu(
            env, cores, switch_overhead_seconds=spec.context_switch_seconds
        )
        self._functions: dict[str, FunctionModel] = {}
        self._standing_memory = 0
        self._dynamic_memory = 0
        self._active_memory = 0
        self.committed_series = TimeSeries("committed_bytes")
        self.active_series = TimeSeries("active_bytes")
        self.committed_series.record(env.now, 0)
        self.active_series.record(env.now, 0)
        self.latencies = LatencyRecorder(spec.name)
        self.per_function_latencies: dict[str, LatencyRecorder] = {}
        self.records: list[RequestRecord] = []
        self.cold_requests = 0
        self.hot_requests = 0

    # -- registration ---------------------------------------------------------

    def register_function(self, name: str, phases: Iterable[Phase]) -> FunctionModel:
        if name in self._functions:
            raise ValueError(f"function {name!r} already registered")
        function = FunctionModel(name, tuple(phases))
        self._functions[name] = function
        self.per_function_latencies[name] = LatencyRecorder(name)
        if self.hot_ratio > 0:
            self._standing_memory += _HOT_POOL_SIZE * self.spec.sandbox_memory_bytes
            self._record_memory()
        return function

    # -- memory accounting ---------------------------------------------------

    @property
    def committed_bytes(self) -> int:
        return self._standing_memory + self._dynamic_memory

    @property
    def active_bytes(self) -> int:
        return self._active_memory

    def _record_memory(self) -> None:
        self.committed_series.record(self.env.now, self.committed_bytes)
        self.active_series.record(self.env.now, self._active_memory)

    # -- request path ----------------------------------------------------------

    def request(self, function_name: str):
        """Start serving one request; returns the simulation process."""
        function = self._functions.get(function_name)
        if function is None:
            raise KeyError(f"unknown function {function_name!r}")
        return self.env.process(self._serve(function))

    def _serve(self, function: FunctionModel):
        arrived_at = self.env.now
        cold = not self.rng.bernoulli(self.hot_ratio)
        memory = self.spec.sandbox_memory_bytes
        self._active_memory += memory
        if cold:
            self.cold_requests += 1
            self._dynamic_memory += memory
            self._record_memory()
            # Cold-start work burns CPU: VM boot does, and while part of
            # a snapshot restore is I/O, the paper attributes FC
            # saturation to CPU contention between serving and creation.
            yield self.cpu.consume(self.spec.cold_start_total_seconds(memory))
        else:
            self.hot_requests += 1
            self._record_memory()
            yield self.cpu.consume(self.spec.hot_start_seconds)

        for phase in function.phases:
            if phase.kind == "compute":
                yield self.cpu.consume(phase.seconds * self.spec.compute_slowdown)
            else:
                yield self.env.timeout(phase.seconds)

        self._active_memory -= memory
        if cold:
            # The cold-started sandbox is torn down after use.
            self._dynamic_memory -= memory
        self._record_memory()
        finished_at = self.env.now
        record = RequestRecord(function.name, arrived_at, finished_at, cold)
        self.records.append(record)
        self.latencies.record(record.latency)
        self.per_function_latencies[function.name].record(record.latency)
        return record

    # -- reporting --------------------------------------------------------------

    def cold_fraction(self) -> float:
        total = self.cold_requests + self.hot_requests
        return self.cold_requests / total if total else 0.0
