"""Calibrated cost profiles for the baseline platforms (§7.1–§7.3).

Sources, all from the paper's own measurements:

* **Firecracker** — fresh MicroVM boot "takes over 150ms" (§7.2);
  snapshot restore keeps >10 ms on the critical path, of which ">8ms
  [is] spent on the snapshot demand paging and guest-host connection
  re-establishment" (§1, §2.3); snapshot-restore throughput tops out
  near 120 RPS on the 4-core Morello-class setup, consistent with a
  largely serial ~12 ms restore.
* **gVisor** — "performed worse than FC with snapshots" (§7.2);
  container creation is a few hundred ms and KVM-platform syscall
  interception taxes compute.
* **Spin/Wasmtime** — pooled allocation and pre-instantiation make
  instance startup lightweight (peaks at 7000 RPS on 4 cores → ~0.57 ms
  per request of setup+work); compute runs slower than native (§7.3
  Fig 6 shows WT saturating at 2600 RPS vs Dandelion-KVM's 4800 on the
  same matmul).
* **Hyperlight Wasm** — 9.1 ms average unloaded cold start: ProtoWasm
  sandbox launch 2.8 ms + Wasmtime runtime load 4.2 ms + module load
  2.1 ms (§7.2); for the 128×128 matmul configuration the measured
  stages are 2.6 + 12.1 + 4.7 ms with 8.1 ms execution (§7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "MiB",
    "PlatformSpec",
    "FIRECRACKER",
    "FIRECRACKER_SNAPSHOT",
    "KNATIVE_ORCHESTRATION_SECONDS",
    "MICROVM_GUEST_OVERHEAD_BYTES",
    "GVISOR",
    "WASMTIME",
    "HYPERLIGHT",
    "HYPERLIGHT_MATMUL",
    "WASM_COMPUTE_SLOWDOWN",
]

MiB = 1024 * 1024


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


# Wasm-vs-native compute gap for Wasmtime (Jangda et al. report
# 1.45-2.08x average): Fig 6's saturation ratio (2600 vs 4800 RPS at
# equal cores) implies this factor once per-request overheads are
# accounted for.  Hyperlight's measured matmul (8.1 ms vs ~3 ms native)
# implies a larger 2.7x for its toolchain.
WASM_COMPUTE_SLOWDOWN = 1.85

FIRECRACKER = PlatformSpec(
    name="firecracker",
    cold_start_seconds=0.150,
    hot_start_seconds=0.0014,      # HTTP relay hop + virtio round trip into the VM
    compute_slowdown=1.05,         # virtualization tax
    sandbox_memory_bytes=128 * MiB,
    context_switch_seconds=5e-6,
)

# The same MicroVM restored from a snapshot: only the cold path differs.
FIRECRACKER_SNAPSHOT = replace(
    FIRECRACKER,
    name="firecracker-snapshot",
    cold_start_seconds=0.012,      # restore: >8ms paging + connection + create
    # Demand paging grows with the guest footprint; with the default
    # 128 MiB sandbox this adds ~15 ms, putting the restore-limited
    # throughput near the paper's ~120 RPS on 4 cores.
    cold_paging_seconds_per_mib=0.00012,
)

# Two costs of Firecracker snapshots under Knative that only the trace
# replay's FaaS worker (Figs 1 and 10) charges, so they have no spec
# field.  A scale-from-zero cold start adds 0.8 s of orchestration
# (activator hop, autoscaler reaction, scheduling) to the snapshot
# restore: the path behind the paper's 46% p99 gap.  The worker sums it
# as ``(restore + orchestration) + paging``; ``0.012 + 0.8`` is exact in
# binary64, another order is not.
KNATIVE_ORCHESTRATION_SECONDS = 0.8
# What a MicroVM commits beyond the function's working set: guest
# kernel, rootfs page cache, agent (§2.3).
MICROVM_GUEST_OVERHEAD_BYTES = 40 * MiB

GVISOR = PlatformSpec(
    name="gvisor",
    cold_start_seconds=0.350,
    hot_start_seconds=0.0012,
    compute_slowdown=1.3,          # Sentry syscall interception
    sandbox_memory_bytes=96 * MiB,
    context_switch_seconds=6e-6,
)

WASMTIME = PlatformSpec(
    name="wasmtime",
    cold_start_seconds=0.00045,    # pooled allocation + pre-instantiation
    hot_start_seconds=0.00025,
    compute_slowdown=WASM_COMPUTE_SLOWDOWN,
    sandbox_memory_bytes=8 * MiB,  # pooled instance slot
    context_switch_seconds=3e-6,   # Tokio task hops
)

HYPERLIGHT = PlatformSpec(
    name="hyperlight",
    cold_start_seconds=0.0091,     # 2.8 + 4.2 + 2.1 ms (§7.2 configuration)
    hot_start_seconds=0.0005,
    compute_slowdown=WASM_COMPUTE_SLOWDOWN,
    sandbox_memory_bytes=16 * MiB,
    context_switch_seconds=3e-6,
)

# The 128x128-matmul configuration needs bigger guest buffers, making
# every load stage slower (§7.3): 2.6 + 12.1 + 4.7 ms before execution.
HYPERLIGHT_MATMUL = PlatformSpec(
    name="hyperlight-matmul",
    cold_start_seconds=0.0194,
    hot_start_seconds=0.0005,
    compute_slowdown=2.7,          # 8.1 ms measured vs ~3 ms native
    sandbox_memory_bytes=24 * MiB,
    context_switch_seconds=3e-6,
)
