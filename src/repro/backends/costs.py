"""Calibrated sandbox cost models for the four isolation backends.

The timing constants come straight from the paper:

* Table 1 gives the unloaded per-stage latency breakdown (in µs) for a
  1×1 int64 matmul on the Arm Morello board, for each backend:
  marshal, load-from-disk, transfer-input, execute, get/send-output,
  and "other".  Totals: CHERI 89, rWasm 241, process 486, KVM 889 µs.
* §7.2 adds the totals on a default Linux 5.15 kernel (x86 server):
  rWasm 109, process 539, KVM 218 µs.  (CHERI requires Morello
  hardware; on the x86 profiles we keep it for completeness at its
  Morello costs.)

Each stage is modelled as the paper's reference value plus a
bandwidth-proportional term for sizes beyond the reference, so the
Table 1 scenario reproduces the published numbers exactly while larger
binaries/payloads scale physically.

The rWasm backend additionally carries a *compute slowdown* factor for
the transpiled code ("its rWasm backend suffers from slower matrix
multiplication code due to transpilation", §7.3).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BACKEND_NAMES",
    "StageCosts",
    "BackendSpec",
    "BACKEND_SPECS",
    "MICROSECOND",
    "REFERENCE_BINARY_SIZE",
    "REFERENCE_PAYLOAD_SIZE",
    "DISK_BYTES_PER_SECOND",
    "MEMORY_BYTES_PER_SECOND",
    "REPLAY_CREATION_SECONDS",
]

BACKEND_NAMES = ("cheri", "rwasm", "process", "kvm")

MICROSECOND = 1e-6

# The Table 1 scenario: a tiny statically linked matmul binary and a
# 1x1 int64 matrix in/out.
REFERENCE_BINARY_SIZE = 64 * 1024
REFERENCE_PAYLOAD_SIZE = 16

# Bandwidths used for the size-proportional terms.
DISK_BYTES_PER_SECOND = 2e9     # NVMe-class sequential read
MEMORY_BYTES_PER_SECOND = 10e9  # single-core memcpy


@dataclass(frozen=True)
class StageCosts:
    """Per-invocation sandbox stage costs, in seconds, at reference sizes."""

    marshal: float
    load_from_disk: float
    transfer_input: float
    execute_overhead: float
    get_send_output: float
    other: float

    @property
    def total(self) -> float:
        return (
            self.marshal
            + self.load_from_disk
            + self.transfer_input
            + self.execute_overhead
            + self.get_send_output
            + self.other
        )

    def scaled(self, factor: float) -> "StageCosts":
        """Uniformly scale all stages (used to derive kernel profiles)."""
        return StageCosts(
            marshal=self.marshal * factor,
            load_from_disk=self.load_from_disk * factor,
            transfer_input=self.transfer_input * factor,
            execute_overhead=self.execute_overhead * factor,
            get_send_output=self.get_send_output * factor,
            other=self.other * factor,
        )


def _micro(marshal, load, transfer, execute, output, other) -> StageCosts:
    return StageCosts(
        marshal=marshal * MICROSECOND,
        load_from_disk=load * MICROSECOND,
        transfer_input=transfer * MICROSECOND,
        execute_overhead=execute * MICROSECOND,
        get_send_output=output * MICROSECOND,
        other=other * MICROSECOND,
    )


# Table 1 (Morello, CHERI-compatible kernel).
_MORELLO_STAGES = {
    "cheri": _micro(12, 29, 2, 5, 9, 32),
    "rwasm": _micro(15, 147, 2, 20, 12, 45),
    "process": _micro(12, 54, 6, 371, 9, 34),
    "kvm": _micro(30, 194, 2, 536, 25, 102),
}

# §7.2: totals on a default Linux 5.15 kernel.  We keep each backend's
# Morello stage *proportions* and scale to the published Linux totals.
_LINUX_TOTALS_MICRO = {"rwasm": 109.0, "process": 539.0, "kvm": 218.0}

_LINUX_STAGES = {
    name: _MORELLO_STAGES[name].scaled(
        (_LINUX_TOTALS_MICRO[name] * MICROSECOND) / _MORELLO_STAGES[name].total
    )
    for name in _LINUX_TOTALS_MICRO
}
# CHERI needs Morello hardware; when asked for on a Linux x86 profile we
# reuse the Morello numbers (documented substitute, not a paper claim).
_LINUX_STAGES["cheri"] = _MORELLO_STAGES["cheri"]

# The trace replay's Dandelion worker (Figs 1 and 10) charges one flat,
# rounded sandbox-creation cost per request: 1 ms.  It is not a Table 1
# or §7.2 total (Linux process is 539 µs, KVM 218 µs).
REPLAY_CREATION_SECONDS = 0.001


@dataclass(frozen=True)
class BackendSpec:
    """Everything the simulator needs to model one isolation backend."""

    name: str
    stages: StageCosts
    compute_slowdown: float = 1.0
    # Fraction of the load stage that remains when the binary is served
    # from the in-memory cache rather than disk (§7.4 cached variant).
    cached_load_fraction: float = 0.15

    def load_seconds(self, binary_size: int, cached: bool) -> float:
        extra = max(0, binary_size - REFERENCE_BINARY_SIZE)
        if cached:
            return (
                self.stages.load_from_disk * self.cached_load_fraction
                + extra / MEMORY_BYTES_PER_SECOND
            )
        return self.stages.load_from_disk + extra / DISK_BYTES_PER_SECOND

    def transfer_input_seconds(self, input_bytes: int) -> float:
        extra = max(0, input_bytes - REFERENCE_PAYLOAD_SIZE)
        return self.stages.transfer_input + extra / MEMORY_BYTES_PER_SECOND

    def output_seconds(self, output_bytes: int) -> float:
        extra = max(0, output_bytes - REFERENCE_PAYLOAD_SIZE)
        return self.stages.get_send_output + extra / MEMORY_BYTES_PER_SECOND

    def breakdown(
        self,
        binary_size: int,
        input_bytes: int,
        output_bytes: int,
        compute_seconds: float,
        cached: bool = False,
        remap_input: bool = False,
    ) -> dict[str, float]:
        """Per-stage seconds for one invocation (Table 1 row shape).

        ``remap_input`` models the §6.1 zero-copy variant: inputs are
        made visible by remapping pages rather than copying bytes, so
        only the fixed page-table cost remains.
        """
        if remap_input:
            transfer = self.stages.transfer_input
        else:
            transfer = self.transfer_input_seconds(input_bytes)
        return {
            "marshal": self.stages.marshal,
            "load": self.load_seconds(binary_size, cached),
            "transfer_input": transfer,
            "execute": self.stages.execute_overhead
            + compute_seconds * self.compute_slowdown,
            "output": self.output_seconds(output_bytes),
            "other": self.stages.other,
        }


# rWasm's transpiled code runs slower than native; Fig 6 shows its
# matmul throughput well under the KVM backend's.  2.4x matches the
# published Wasm-vs-native literature the paper cites (Jangda et al.).
_RWASM_SLOWDOWN = 2.4

BACKEND_SPECS: dict[str, dict[str, BackendSpec]] = {
    "morello": {
        name: BackendSpec(
            name=name,
            stages=stages,
            compute_slowdown=_RWASM_SLOWDOWN if name == "rwasm" else 1.0,
        )
        for name, stages in _MORELLO_STAGES.items()
    },
    "linux": {
        name: BackendSpec(
            name=name,
            stages=stages,
            compute_slowdown=_RWASM_SLOWDOWN if name == "rwasm" else 1.0,
        )
        for name, stages in _LINUX_STAGES.items()
    },
}
