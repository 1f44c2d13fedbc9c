"""Isolation backends for compute engines (§6.2).

The prototype implements four memory-isolation mechanisms — KVM
lightweight VMs, Linux processes under ptrace, CHERI capabilities, and
rWasm (Wasm transpiled to safe Rust) — "to demonstrate that Dandelion's
design is not tied to a particular mechanism".

In the reproduction a backend couples two things:

* **Function**: the user callable really runs (under the purity guard)
  and real output bytes are produced, identically across backends — as
  in the prototype, the backend choice affects isolation cost, not
  semantics.
* **Timing**: the per-stage virtual-time cost of the invocation, from
  the calibrated :class:`~repro.backends.costs.BackendSpec`.

``default_compute_seconds`` provides the execution-time model used when
a registered binary does not declare one: a fixed instruction-overhead
term plus a byte-proportional term.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..composition.registry import FunctionBinary
from ..data.items import DataSet, total_size
from ..errors import FunctionTimeout
from ..functions.compute import ComputeResult, run_compute_function
from .costs import BACKEND_NAMES, BACKEND_SPECS, BackendSpec

__all__ = ["IsolationBackend", "SandboxExecution", "default_compute_seconds", "create_backend", "BACKEND_NAMES"]

# Default execution-time model for binaries with no declared cost:
# a small fixed cost plus a per-byte term (~1 GB/s of touched data).
_DEFAULT_FIXED_SECONDS = 20e-6
_DEFAULT_SECONDS_PER_BYTE = 1e-9


def default_compute_seconds(input_bytes: int) -> float:
    """Modelled native execution time when no explicit cost is given."""
    return _DEFAULT_FIXED_SECONDS + input_bytes * _DEFAULT_SECONDS_PER_BYTE


@dataclass(frozen=True)
class SandboxExecution:
    """The outcome of running one compute function in a sandbox."""

    result: ComputeResult
    breakdown: dict[str, float]  # stage name -> seconds

    @property
    def total_seconds(self) -> float:
        return sum(self.breakdown.values())

    @property
    def outputs(self) -> list[DataSet]:
        return self.result.outputs


class IsolationBackend:
    """One memory-isolation mechanism with its calibrated cost model."""

    def __init__(self, spec: BackendSpec):
        self.spec = spec
        self.name = spec.name
        # The stage breakdown is a pure function of its arguments and is
        # consumed read-only, so identical invocations (fixed-size hot
        # functions under load) share one memoized dict.
        self._breakdown_cache: dict[tuple, dict[str, float]] = {}

    def execute(
        self,
        binary: FunctionBinary,
        input_sets: list[DataSet],
        output_set_names: list[str],
        cached: bool = False,
        timeout: "float | None" = None,
        remap_input: bool = False,
    ) -> SandboxExecution:
        """Run the function and model its sandboxed execution time.

        ``cached`` selects the in-memory binary cache over loading from
        disk (§7.4 cached vs uncached).  ``timeout`` enforces the
        user-specified execution cap: if the modelled compute time
        exceeds it, the function is preempted (footnote 2 of §5).
        ``remap_input`` selects zero-copy input transfer (§6.1).
        """
        input_bytes = total_size(input_sets)
        compute_seconds = binary.modelled_compute_seconds(input_bytes)
        if compute_seconds is None:
            compute_seconds = default_compute_seconds(input_bytes)
        if timeout is not None and compute_seconds * self.spec.compute_slowdown > timeout:
            raise FunctionTimeout(
                f"{binary.name}: modelled execution of "
                f"{compute_seconds * self.spec.compute_slowdown:.6f}s exceeds "
                f"the {timeout:.6f}s timeout"
            )
        result = run_compute_function(
            binary, input_sets, output_set_names, input_bytes=input_bytes
        )
        key = (
            binary.binary_size,
            result.input_bytes,
            result.output_bytes,
            compute_seconds,
            cached,
            remap_input,
        )
        breakdown = self._breakdown_cache.get(key)
        if breakdown is None:
            breakdown = self.spec.breakdown(
                binary_size=binary.binary_size,
                input_bytes=result.input_bytes,
                output_bytes=result.output_bytes,
                compute_seconds=compute_seconds,
                cached=cached,
                remap_input=remap_input,
            )
            if len(self._breakdown_cache) < 1024:
                self._breakdown_cache[key] = breakdown
        return SandboxExecution(result=result, breakdown=breakdown)

    def creation_seconds(self, binary: FunctionBinary, cached: bool = False) -> float:
        """Sandbox-creation cost alone (marshal + load + other)."""
        return (
            self.spec.stages.marshal
            + self.spec.load_seconds(binary.binary_size, cached)
            + self.spec.stages.other
        )

    def __repr__(self) -> str:
        return f"IsolationBackend({self.name!r})"


def create_backend(name: str, machine: str = "linux") -> IsolationBackend:
    """Factory: backend by name ('cheri', 'rwasm', 'process', 'kvm').

    ``machine`` selects the calibration profile: ``morello`` (Table 1)
    or ``linux`` (§7.2 Linux-5.15 totals).
    """
    machine_specs = BACKEND_SPECS.get(machine)
    if machine_specs is None:
        raise ValueError(f"unknown machine profile {machine!r}; expected one of {sorted(BACKEND_SPECS)}")
    spec = machine_specs.get(name)
    if spec is None:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
    return IsolationBackend(spec)
