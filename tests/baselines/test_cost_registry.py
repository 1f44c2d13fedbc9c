"""Every platform model charges its costs from one registry.

The trace replay's workers (Figs 1 and 10) read the Firecracker-snapshot
costs from ``baselines.specs`` and the Dandelion creation cost from
``backends.costs``; the request latencies of a one-worker replay are
written here from those entries, and no other module of ``src/repro``
spells a Firecracker cost as a literal.
"""

import ast
import pathlib
from dataclasses import asdict, replace

import pytest

from repro.backends.costs import REPLAY_CREATION_SECONDS
from repro.baselines.specs import (
    FIRECRACKER_SNAPSHOT,
    KNATIVE_ORCHESTRATION_SECONDS,
    MICROVM_GUEST_OVERHEAD_BYTES,
    MiB,
)
from repro.sim.sharded import ShardedConfig, shard

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

# Not a round number of MiB, so the paging term has a fraction.
MEMORY = 100 * MiB + 12345


def _latencies(platform, deliveries, end=10.0):
    config = {
        **asdict(ShardedConfig(workers=1, cores_per_worker=1, platform=platform)),
        "duration_seconds": end,
        "memory_of": [MEMORY],
    }
    sim = shard.ShardSim((0,), config)
    sim.run_window([deliveries], end)
    return sim.drain_latencies()


@pytest.mark.parametrize(
    "spec",
    [
        FIRECRACKER_SNAPSHOT,
        # A changed registry entry moves the replay with it.
        replace(
            FIRECRACKER_SNAPSHOT, cold_start_seconds=0.02, hot_start_seconds=0.003,
            compute_slowdown=1.5, cold_paging_seconds_per_mib=0.0005,
        ),
    ],
    ids=["registry", "changed"],
)
def test_faas_replay_charges_the_snapshot_spec(monkeypatch, spec):
    monkeypatch.setattr(shard, "FIRECRACKER_SNAPSHOT", spec)
    first, second = 0.25, 0.5
    cold, hot = _latencies("faas", [(0.0, 0, first, 0.0), (5.0, 0, second, 5.0)])
    footprint = MEMORY + MICROVM_GUEST_OVERHEAD_BYTES
    # (restore + orchestration) + paging: the documented addition order.
    setup = (spec.cold_start_seconds + KNATIVE_ORCHESTRATION_SECONDS) + (
        spec.cold_paging_seconds_per_mib * (footprint / MiB)
    )
    assert cold == setup + first * spec.compute_slowdown
    assert hot == (5.0 + (spec.hot_start_seconds + second * spec.compute_slowdown)) - 5.0


def test_the_cold_path_keeps_the_0812_sum_exact():
    assert FIRECRACKER_SNAPSHOT.cold_start_seconds + KNATIVE_ORCHESTRATION_SECONDS == 0.812


def test_dandelion_replay_charges_the_named_creation_cost():
    assert _latencies("dandelion", [(0.0, 0, 0.25, 0.0)]) == [REPLAY_CREATION_SECONDS + 0.25]


def _float_literals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
    }


def test_firecracker_cost_literals_live_only_in_the_spec_registry():
    firecracker = {0.0014, 0.00012, 1.05}
    where = {}
    for path in sorted(SRC.rglob("*.py")):
        for value in _float_literals(path) & (firecracker | {0.812}):
            where.setdefault(value, []).append(path.relative_to(SRC).as_posix())
    assert where == {value: ["baselines/specs.py"] for value in firecracker}
