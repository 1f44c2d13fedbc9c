"""Dandelion-hybrid (D-hybrid) — the §7.5 ablation baseline.

"To measure the impact of Dandelion's programming model, while keeping
the rest of the system the same, we implement Dandelion-hybrid.  It
uses the same system architecture and isolation backends as Dandelion,
but supports running a composition as a single 'hybrid' function,
allowing opening sockets for communication."

A hybrid function bundles its compute and I/O phases in one sandbox, so
the platform can no longer schedule them separately: the operator must
pick a static concurrency — *threads per core* (tpc), pinned or not —
and the right choice depends on the workload mix:

* ``pinned`` with tpc 1: each task owns a core for its entire lifetime,
  perfect for pure compute (no context switches) but the core idles
  during I/O phases;
* unpinned with tpc k: up to ``k × cores`` tasks run concurrently over
  a processor-shared CPU — I/O overlaps, but compute phases now contend
  and pay context-switch overhead.

Dandelion proper (the engine split + PI controller) needs no such
static choice — that is the comparison Fig 7 draws.

No request is a generator process: a pinned one is one event on the
Figs 5/6 load model's :class:`~repro.sim.resources.FifoCores`, an
unpinned one the FaaS chain :func:`~repro.baselines.base.run_phases`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

from ..backends.base import create_backend
from ..composition.registry import DEFAULT_BINARY_SIZE, FunctionBinary
from ..sim.core import Environment, Event, _PROCESSED
from ..sim.cpu import ProcessorSharingCpu
from ..sim.metrics import LatencyRecorder
from ..sim.resources import FifoCores, Resource
from .base import FunctionModel, Phase, RequestRecord, run_phases

__all__ = ["DHybridPlatform"]

_CONTEXT_SWITCH_SECONDS = 5e-6


def _creation_placeholder(vfs):
    """Hybrid functions are opaque blobs; only their cost profile matters."""


class DHybridPlatform:
    """Dandelion's architecture running monolithic hybrid functions."""

    def __init__(
        self,
        env: Environment,
        cores: int,
        threads_per_core: int = 1,
        pinned: bool = False,
    ):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        if threads_per_core < 1:
            raise ValueError("threads_per_core must be >= 1")
        if pinned and threads_per_core != 1:
            raise ValueError("pinning requires exactly one thread per core")
        self.env = env
        self.cores = cores
        self.threads_per_core = threads_per_core
        self.pinned = pinned
        # The isolation backend of a default Dandelion worker.
        self.backend = create_backend("kvm", "linux")
        self._functions: dict[str, FunctionModel] = {}
        # Per function: sandbox creation, or when pinned, the residency.
        self._setup_seconds: dict[str, float] = {}
        if pinned:
            self._cores = FifoCores(cores)
        else:
            self._core_pool = Resource(env, capacity=cores * threads_per_core)
            # More threads per core means more context switches and
            # cache pollution while oversubscribed.
            efficiency = 1.0 - min(0.3, 0.05 * (threads_per_core - 1))
            self._cpu = ProcessorSharingCpu(
                env, cores, switch_overhead_seconds=_CONTEXT_SWITCH_SECONDS,
                oversubscribed_efficiency=efficiency,
            )
        self.latencies = LatencyRecorder(f"d-hybrid-tpc{threads_per_core}{'-pinned' if pinned else ''}")
        self.records: list[RequestRecord] = []

    def register_function(self, name: str, phases: Iterable[Phase]) -> FunctionModel:
        if name in self._functions:
            raise ValueError(f"function {name!r} already registered")
        function = FunctionModel(name, tuple(phases))
        self._functions[name] = function
        binary = FunctionBinary(
            name=name, entry_point=_creation_placeholder, binary_size=DEFAULT_BINARY_SIZE
        )
        creation = self.backend.creation_seconds(binary)
        if self.pinned:
            creation += sum(phase.seconds for phase in function.phases)
        self._setup_seconds[name] = creation
        return function

    def request(self, function_name: str) -> Event:
        """Start one request; returns the event that fires with its record."""
        function = self._functions.get(function_name)
        if function is None:
            raise KeyError(f"unknown function {function_name!r}")
        env = self.env
        setup = self._setup_seconds[function_name]
        if self.pinned:
            end = self._cores.admit(env.now, setup)
            done = env.timeout_at(end, RequestRecord(function_name, env.now, end, cold=True))
            done.callbacks.append(lambda event: self._log(event._value))
            return done
        admission = self._core_pool.request()
        done = Event(env)
        finish = partial(self._finish, admission, done, function_name, env.now)
        start = partial(run_phases, self._cpu, function.phases, 1.0, setup, finish)
        if admission._state == _PROCESSED:
            start()
        else:
            admission.callbacks.append(start)
        return done

    def _log(self, record: RequestRecord) -> RequestRecord:
        self.records.append(record)
        self.latencies.record(record.latency)
        return record

    def _finish(self, admission, done: Event, name: str, arrived_at: float) -> None:
        self._core_pool.release(admission)
        done.succeed(self._log(RequestRecord(name, arrived_at, self.env.now, cold=True)))
