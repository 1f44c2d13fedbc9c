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

A request is a callback chain, :func:`run_phases` (shared with
D-hybrid), not a generator process.  It is *hot* with a fixed
probability ``hot_ratio`` (the 97%-hot setting justified by the Azure
trace, §7.3): one ``rng.bernoulli(hot_ratio)`` draw per request, at
arrival.  Hot requests start in a pre-provisioned sandbox; a cold
request first boots a fresh one.  The model accounts time, not memory: the Knative
keep-alive memory behaviour of Figs 1 and 10 is modelled by the sharded
trace replay's FaaS worker (:mod:`repro.sim.sharded.shard`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

from ..sim.core import Environment, Event
from ..sim.cpu import ProcessorSharingCpu
from ..sim.distributions import Rng
from ..sim.metrics import LatencyRecorder
from .specs import PlatformSpec

__all__ = [
    "Phase",
    "compute_phase",
    "io_phase",
    "FunctionModel",
    "FaasPlatform",
    "RequestRecord",
]


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


def run_phases(cpu, phases, compute_slowdown, setup_seconds, finish, _event=None) -> None:
    """Serve one baseline request as a callback chain: ``setup_seconds`` of
    ``cpu``, then each phase, then ``finish()``.  Each step's event calls
    the next step where a generator process's resume sat, so the heap gets
    the generator's entries in its order."""
    step = partial(_advance, cpu, phases, compute_slowdown, 0, finish)
    cpu.consume(setup_seconds).callbacks.append(step)


def _advance(cpu, phases: tuple, slowdown: float, index: int, finish, _event) -> None:
    if index == len(phases):
        finish()
        return
    phase = phases[index]
    if phase.kind == "compute":
        event = cpu.consume(phase.seconds * slowdown)
    else:
        event = cpu.env.timeout(phase.seconds)
    event.callbacks.append(partial(_advance, cpu, phases, slowdown, index + 1, finish))


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
        self.latencies = LatencyRecorder(spec.name)
        self.per_function_latencies: dict[str, LatencyRecorder] = {}
        self.records: list[RequestRecord] = []
        self.cold_requests = 0
        self.hot_requests = 0

    def register_function(self, name: str, phases: Iterable[Phase]) -> FunctionModel:
        if name in self._functions:
            raise ValueError(f"function {name!r} already registered")
        function = FunctionModel(name, tuple(phases))
        self._functions[name] = function
        self.per_function_latencies[name] = LatencyRecorder(name)
        return function

    def request(self, function_name: str) -> Event:
        """Start serving one request; returns the event that fires with its
        :class:`RequestRecord`."""
        function = self._functions.get(function_name)
        if function is None:
            raise KeyError(f"unknown function {function_name!r}")
        done = Event(self.env)
        # The request is admitted one zero-delay hop after submission.
        self.env.call_later(0, self._start, function, done)
        return done

    def _start(self, function: FunctionModel, done: Event) -> None:
        cold = not self.rng.bernoulli(self.hot_ratio)
        if cold:
            self.cold_requests += 1
            # Cold-start work burns CPU: VM boot does, and while part of
            # a snapshot restore is I/O, the paper attributes FC
            # saturation to CPU contention between serving and creation.
            setup = self.spec.cold_start_total_seconds(self.spec.sandbox_memory_bytes)
        else:
            self.hot_requests += 1
            setup = self.spec.hot_start_seconds
        finish = partial(self._finish, done, function.name, self.env.now, cold)
        run_phases(self.cpu, function.phases, self.spec.compute_slowdown, setup, finish)

    def _finish(self, done: Event, name: str, arrived_at: float, cold: bool) -> None:
        record = RequestRecord(name, arrived_at, self.env.now, cold)
        self.records.append(record)
        self.latencies.record(record.latency)
        self.per_function_latencies[name].record(record.latency)
        done.succeed(record)

    def cold_fraction(self) -> float:
        total = self.cold_requests + self.hot_requests
        return self.cold_requests / total if total else 0.0
