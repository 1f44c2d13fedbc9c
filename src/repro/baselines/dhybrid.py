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
"""

from __future__ import annotations

from typing import Iterable

from ..backends.base import create_backend
from ..composition.registry import DEFAULT_BINARY_SIZE, FunctionBinary
from ..sim.core import Environment, Event, _PROCESSED
from ..sim.cpu import ProcessorSharingCpu
from ..sim.metrics import LatencyRecorder
from ..sim.resources import Resource
from .base import FunctionModel, Phase, RequestRecord

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
        self._binaries: dict[str, FunctionBinary] = {}
        # Sandbox-creation cost per function is load-independent; cache
        # it at registration instead of recomputing per request.
        self._creation_seconds: dict[str, float] = {}
        # Pinned tasks hold their core through creation and every phase,
        # so the whole residency collapses into one timeout.
        self._pinned_residency: dict[str, float] = {}
        if pinned:
            self._core_pool = Resource(env, capacity=cores)
            self._cpu = None
        else:
            self._core_pool = Resource(env, capacity=cores * threads_per_core)
            # More threads per core means more context switches and
            # cache pollution while oversubscribed.
            efficiency = 1.0 - min(0.3, 0.05 * (threads_per_core - 1))
            self._cpu = ProcessorSharingCpu(
                env,
                cores,
                switch_overhead_seconds=_CONTEXT_SWITCH_SECONDS,
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
            name=name,
            entry_point=_creation_placeholder,
            binary_size=DEFAULT_BINARY_SIZE,
        )
        self._binaries[name] = binary
        creation = self.backend.creation_seconds(binary)
        self._creation_seconds[name] = creation
        self._pinned_residency[name] = creation + sum(
            phase.seconds for phase in function.phases
        )
        return function

    def request(self, function_name: str):
        function = self._functions.get(function_name)
        if function is None:
            raise KeyError(f"unknown function {function_name!r}")
        return self._serve(function)

    def _serve(self, function: FunctionModel) -> Event:
        """Run one request as a callback chain over heap events.

        Requests dominate every loaded baseline sweep, so instead of a
        generator process per request (an extra initialization event,
        a process-end event and a generator resume per step) the same
        admission → creation → phases → release sequence is chained
        through event callbacks.  Virtual-time behaviour is identical:
        each callback is appended exactly where the process resume
        callback used to sit.
        """
        env = self.env
        completion = Event(env)
        arrived_at = env.now
        admission = self._core_pool.request()

        def finish():
            self._core_pool.release(admission)
            record = RequestRecord(function.name, arrived_at, env.now, cold=True)
            self.records.append(record)
            self.latencies.record(record.latency)
            completion.succeed(record)

        if self.pinned:
            def start(_event=None):
                # The task owns its core outright: creation, compute and
                # even I/O waits all elapse while holding the core, so
                # the whole residency is one pre-summed timeout.
                timer = env.timeout(self._pinned_residency[function.name])
                timer.callbacks.append(lambda _e: finish())
        else:
            phases = function.phases

            def advance(index):
                if index >= len(phases):
                    finish()
                    return
                phase = phases[index]
                if phase.kind == "compute":
                    step = self._cpu.consume(phase.seconds)
                else:
                    step = env.timeout(phase.seconds)
                step.callbacks.append(lambda _e, i=index + 1: advance(i))

            def start(_event=None):
                step = self._cpu.consume(self._creation_seconds[function.name])
                step.callbacks.append(lambda _e: advance(0))

        if admission._state == _PROCESSED:
            start()
        else:
            admission.callbacks.append(start)
        return completion
