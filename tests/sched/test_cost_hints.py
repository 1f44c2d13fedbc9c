"""CostAware routing: static width hints drive pack-vs-spread placement."""

import pytest

from repro.analysis.compositions import CompositionCostSummary
from repro.sched import ROUTING_POLICIES, CostAware, StaticHints, make_routing_policy
from repro.sched.snapshots import ClusterSnapshot


def summary(name, width, bounded=True):
    return CompositionCostSummary(
        composition=name,
        node_count=width,
        edge_count=max(width - 1, 0),
        critical_path_depth=1,
        critical_path_seconds=0.001 * width,
        total_compute_seconds=0.001 * width,
        max_parallel_width=width,
        peak_inflight_bytes=1,
        statically_bounded=bounded,
    )


def snap(composition, loads, healthy=None):
    indices = tuple(range(len(loads))) if healthy is None else healthy
    return ClusterSnapshot(
        indices,
        len(loads),
        [True] * len(loads),
        list(loads),
        composition,
        (),
        lambda index: (),
    )


@pytest.fixture
def policy():
    p = CostAware()
    p.ingest_summary(summary("chain", 1))
    p.ingest_summary(summary("fan", 8))
    p.ingest_summary(summary("dynamic", 1, bounded=False))
    return p


def test_registered_by_name():
    assert ROUTING_POLICIES["cost"] is CostAware
    assert isinstance(make_routing_policy("cost", None), CostAware)


def test_narrow_packs_onto_most_loaded(policy):
    assert policy.decide(snap("chain", [3, 1, 0])) == 0


def test_narrow_tie_breaks_by_index(policy):
    assert policy.decide(snap("chain", [2, 2, 0])) == 0


def test_narrow_respects_pack_limit(policy):
    # Workers 0 and 1 are at the default pack_limit of 8: degrade to
    # least-outstanding instead of overloading them further.
    assert policy.decide(snap("chain", [8, 9, 2])) == 2


def test_all_full_degrades_to_least_outstanding(policy):
    assert policy.decide(snap("chain", [9, 8, 10])) == 1


def test_wide_spreads_least_outstanding(policy):
    assert policy.decide(snap("fan", [3, 1, 0])) == 2


def test_unbounded_spreads(policy):
    assert policy.decide(snap("dynamic", [3, 1, 0])) == 2


def test_unknown_composition_spreads(policy):
    assert policy.decide(snap("mystery", [3, 1, 0])) == 2


def test_no_healthy_returns_none(policy):
    assert policy.decide(snap("chain", [0, 0], healthy=())) is None


def test_width_threshold_boundary():
    policy = CostAware(wide_width=4)
    policy.ingest_summary(summary("w3", 3))
    policy.ingest_summary(summary("w4", 4))
    assert policy.decide(snap("w3", [2, 0])) == 0  # narrow: pack
    assert policy.decide(snap("w4", [2, 0])) == 1  # wide: spread


def test_decisions_are_deterministic(policy):
    loads_sequence = [[3, 1, 0], [0, 0, 0], [5, 5, 5], [2, 7, 1]]
    first = [policy.decide(snap("chain", loads)) for loads in loads_sequence]
    second = [policy.decide(snap("chain", loads)) for loads in loads_sequence]
    assert first == second


def test_constructor_validation():
    with pytest.raises(ValueError):
        CostAware(wide_width=0)
    with pytest.raises(ValueError):
        CostAware(pack_limit=0)


def test_static_hints_store():
    hints = StaticHints()
    assert len(hints) == 0 and "x" not in hints
    hints.ingest(summary("x", 2))
    assert len(hints) == 1 and "x" in hints
    assert hints.get("x").max_parallel_width == 2
    assert hints.get("absent") is None


def test_cluster_manager_ingests_on_registration():
    from repro.analysis.runner import demo_registry
    from repro.cluster.manager import ClusterManager
    from repro.composition.printer import composition_to_dsl

    registry = demo_registry()
    manager = ClusterManager(worker_count=3, seed=7, policy="cost")
    for name in registry.function_names:
        manager.register_function(registry.function(name))
    for name in registry.composition_names:
        manager.register_composition(composition_to_dsl(registry.composition(name)))
    hints = manager.routing_policy.hints
    assert set(registry.composition_names) <= {
        name for name in registry.composition_names if name in hints
    }
    assert len(hints) == len(registry.composition_names)


def test_other_policies_skip_ingestion():
    from repro.cluster.manager import ClusterManager

    manager = ClusterManager(worker_count=2, seed=7, policy="least_loaded")
    assert not hasattr(manager.routing_policy, "ingest_summary")
