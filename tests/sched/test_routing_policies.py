"""Unit tests for the repro.sched routing policies over synthetic snapshots."""

import pytest

from repro.sched.routing import (
    JSQ,
    JSQ_D,
    SPILL_MARGIN,
    ROUTING_POLICIES,
    LeastOutstanding,
    LocalityAware,
    RandomRouting,
    RoundRobin,
    RoutingPolicy,
    make_routing_policy,
)
from repro.sched.snapshots import ClusterSnapshot
from repro.sim.distributions import Rng


def snap(in_flight, healthy=None, warm=None, functions=()):
    """Build a ClusterSnapshot from per-worker in-flight counts."""
    count = len(in_flight)
    healthy_set = set(range(count) if healthy is None else healthy)
    warm = warm or {}
    return ClusterSnapshot(
        tuple(sorted(healthy_set)),
        count,
        {index: index in healthy_set for index in range(count)},
        dict(enumerate(in_flight)),
        "comp" if functions else None,
        tuple(functions),
        lambda index: warm.get(index, frozenset()),
    )


# -- round robin --------------------------------------------------------------


def test_round_robin_rotates_over_all_workers():
    policy = RoundRobin()
    view = snap([0, 0, 0])
    assert [policy.decide(view) for _ in range(6)] == [0, 1, 2, 0, 1, 2]


def test_round_robin_skips_unhealthy():
    policy = RoundRobin()
    view = snap([0, 0, 0], healthy={0, 2})
    assert [policy.decide(view) for _ in range(4)] == [0, 2, 0, 2]


def test_round_robin_phase_survives_membership_change():
    # The legacy implementation advanced one shared counter modulo the
    # *current healthy count*, so a failure shifted every later turn.
    # The cursor now walks the stable index ring: surviving workers
    # keep exactly their position in the rotation.
    policy = RoundRobin()
    all_up = snap([0, 0, 0, 0])
    assert [policy.decide(all_up) for _ in range(2)] == [0, 1]
    one_down = snap([0, 0, 0, 0], healthy={0, 1, 2})
    assert [policy.decide(one_down) for _ in range(4)] == [2, 0, 1, 2]
    # Worker 3 rejoins at its old index position: the cursor was parked
    # on its slot, so it is next in line, then the ring continues.
    assert [policy.decide(all_up) for _ in range(4)] == [3, 0, 1, 2]


def test_round_robin_empty_fleet():
    policy = RoundRobin()
    assert policy.decide(snap([0, 0], healthy=set())) is None


# -- least outstanding --------------------------------------------------------


def test_least_outstanding_picks_min_in_flight():
    assert LeastOutstanding().decide(snap([3, 1, 2])) == 1


def test_least_outstanding_breaks_ties_by_index():
    assert LeastOutstanding().decide(snap([2, 1, 1])) == 1


def test_least_outstanding_ignores_unhealthy():
    assert LeastOutstanding().decide(snap([0, 5, 3], healthy={1, 2})) == 2


# -- random -------------------------------------------------------------------


def test_random_only_picks_healthy():
    policy = RandomRouting(Rng(3))
    view = snap([0, 0, 0, 0], healthy={1, 3})
    for _ in range(50):
        assert policy.decide(view) in (1, 3)


def test_random_requires_rng():
    with pytest.raises(ValueError):
        RandomRouting(None)


# -- JSQ ----------------------------------------------------------------------


def test_jsq_picks_least_loaded_of_sample():
    # Fixed seed: the sampled pair is deterministic, and the decision
    # must be the less-loaded member of that pair.
    rng = Rng(11)
    policy = JSQ(Rng(11))
    view = snap([4, 3, 2, 1, 0, 5])
    for _ in range(20):
        expected_pair = rng.sample(tuple(range(6)), JSQ_D)
        expected = min(expected_pair, key=lambda i: (view.in_flight(i), i))
        assert policy.decide(view) == expected


def test_jsq_with_d_at_fleet_size_consumes_no_rng():
    rng = Rng(5)
    policy = JSQ(rng)
    assert JSQ_D == 2
    assert policy.decide(snap([2, 0])) == 1
    # No draw happened: the stream is still at its origin.
    assert rng.uniform() == Rng(5).uniform()


# -- locality -----------------------------------------------------------------


def test_locality_prefers_warm_worker():
    view = snap(
        [0, 1, 0],
        warm={1: {"f1"}},
        functions=("f1",),
    )
    # Worker 1 is warmer despite carrying one more in-flight request.
    assert LocalityAware().decide(view) == 1


def test_locality_ranks_by_warm_count():
    view = snap(
        [0, 0, 0],
        warm={0: {"f1"}, 2: {"f1", "f2"}},
        functions=("f1", "f2"),
    )
    assert LocalityAware().decide(view) == 2


def test_locality_without_composition_falls_back_to_least_outstanding():
    assert LocalityAware().decide(snap([2, 0, 1])) == 1


def test_locality_without_warm_worker_falls_back_to_least_outstanding():
    view = snap([2, 0, 1], functions=("f1",))
    assert LocalityAware().decide(view) == 1


def test_locality_spills_when_warm_worker_is_overloaded():
    policy = LocalityAware()
    assert SPILL_MARGIN == 3
    # Below the margin the warm worker holds the traffic...
    held = snap([0, 2, 0], warm={1: {"f1"}}, functions=("f1",))
    assert policy.decide(held) == 1
    # ...at the margin it spills to plain least-outstanding.
    spilled = snap([0, 3, 0], warm={1: {"f1"}}, functions=("f1",))
    assert policy.decide(spilled) == 0


def test_locality_spill_ignores_unhealthy_baseline():
    # The spill comparison is against the least-loaded *healthy* worker.
    policy = LocalityAware()
    view = snap(
        [0, 2, 2],
        healthy={1, 2},
        warm={1: {"f1"}},
        functions=("f1",),
    )
    # Worker 0 (in_flight 0) is down, so the lightest healthy load is 2
    # and the warm worker is not considered overloaded.
    assert policy.decide(view) == 1


# -- registry / factory -------------------------------------------------------


def test_registry_maps_names_to_classes():
    assert set(ROUTING_POLICIES) == {
        "round_robin",
        "least_loaded",
        "random",
        "jsq",
        "locality",
        "gray",
    }
    for name, cls in ROUTING_POLICIES.items():
        assert issubclass(cls, RoutingPolicy)
        assert cls.name == name


def test_make_routing_policy_resolves_names():
    for name in ROUTING_POLICIES:
        policy = make_routing_policy(name, Rng(0))
        assert isinstance(policy, ROUTING_POLICIES[name])


def test_make_routing_policy_passes_instances_through():
    policy = RoundRobin()
    assert make_routing_policy(policy, Rng(0)) is policy


def test_make_routing_policy_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown policy"):
        make_routing_policy("fifo", Rng(0))


def test_cost_routing_removed():
    # The static-hint bin packer had no caller; its name is not reused.
    with pytest.raises(ValueError, match="unknown policy"):
        make_routing_policy("cost", Rng(0))


def test_make_routing_policy_rejects_wrong_type():
    with pytest.raises(TypeError):
        make_routing_policy(42, Rng(0))
