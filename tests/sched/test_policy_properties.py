"""Property tests: the determinism contract every routing policy signs.

docs/scheduling.md: a policy's decisions must be a pure function of
(its constructor arguments, the sequence of snapshots it has seen).
These tests feed every registered policy a seeded, varied snapshot
stream twice and require identical decision sequences — and pin the
JSQ == LeastOutstanding degeneration on fleets of at most JSQ_D workers
decision-for-decision.
"""

import pytest

from repro.sched.routing import JSQ, JSQ_D, ROUTING_POLICIES, LeastOutstanding
from repro.sched.snapshots import ClusterSnapshot
from repro.sim.distributions import Rng

WORKERS = 8
STEPS = 300


def snapshot_stream(seed: int, workers: int = WORKERS, steps: int = STEPS):
    """Deterministic sequence of varied cluster views: shifting load,
    occasional failures, growing warm caches."""
    rng = Rng(seed)
    warm = {index: set() for index in range(workers)}
    for step in range(steps):
        in_flight = {index: rng.randint(0, 6) for index in range(workers)}
        healthy_set = set(range(workers))
        if rng.bernoulli(0.2):
            healthy_set.discard(rng.randint(0, workers - 1))
        if rng.bernoulli(0.3):
            warm[rng.randint(0, workers - 1)].add("f1")
        yield ClusterSnapshot(
            tuple(sorted(healthy_set)),
            workers,
            {index: index in healthy_set for index in range(workers)},
            in_flight,
            "comp",
            ("f1", "f2"),
            lambda index: warm[index],
        )


def decisions_of(policy, seed: int, workers: int = WORKERS) -> list:
    return [policy.decide(view) for view in snapshot_stream(seed, workers)]


@pytest.mark.parametrize("name", sorted(ROUTING_POLICIES))
def test_policy_reproducible_run_to_run(name):
    cls = ROUTING_POLICIES[name]
    first = decisions_of(cls.build(Rng(42)), seed=7)
    second = decisions_of(cls.build(Rng(42)), seed=7)
    assert first == second
    # The stream routed somewhere, and only to healthy workers.
    assert all(choice is not None for choice in first)


@pytest.mark.parametrize("name", sorted(ROUTING_POLICIES))
def test_policy_decisions_respect_health(name):
    cls = ROUTING_POLICIES[name]
    policy = cls.build(Rng(9))
    for view in snapshot_stream(seed=21):
        choice = policy.decide(view)
        assert view.is_healthy(choice)


@pytest.mark.parametrize("workers", [1, JSQ_D])
def test_jsq_with_d_at_or_above_fleet_matches_least_outstanding(workers):
    jsq = JSQ(Rng(3))
    reference = LeastOutstanding()
    jsq_choices = decisions_of(jsq, seed=13, workers=workers)
    reference_choices = decisions_of(reference, seed=13, workers=workers)
    assert jsq_choices == reference_choices


# -- gray-failure (degraded fleet) contract --------------------------------
#
# When the cluster manager runs a latency health tracker, snapshots carry
# a preferred ring (healthy minus quarantined), per-worker EWMA scores and
# quarantine flags.  Every registered policy must (a) keep its traffic off
# quarantined workers while a non-quarantined one exists, (b) still route
# somewhere when the whole fleet is quarantined, and (c) stay a pure
# function of (ctor args, snapshot stream) with the health fields present.


def degraded_snapshot_stream(
    seed: int,
    workers: int = WORKERS,
    steps: int = STEPS,
    all_quarantined: bool = False,
):
    """Seeded snapshots with latency health populated.

    In-flight counts are kept within [0, 2] so the load spread stays
    below every spill margin (default 3): the bounded spill-back in
    gray/locality is deliberately allowed to touch quarantined workers
    under imbalance, so the no-quarantine property is asserted in the
    balanced regime where it is unconditional.
    """
    rng = Rng(seed)
    for _ in range(steps):
        in_flight = {index: rng.randint(0, 2) for index in range(workers)}
        healthy_set = set(range(workers))
        if rng.bernoulli(0.2):
            healthy_set.discard(rng.randint(0, workers - 1))
        if all_quarantined:
            quarantined_set = set(healthy_set)
        else:
            quarantined_set = set()
            for index in sorted(healthy_set):
                if rng.bernoulli(0.3):
                    quarantined_set.add(index)
            # Keep at least one non-quarantined healthy worker so the
            # "never pick quarantined" property is well-defined.
            if quarantined_set == healthy_set and quarantined_set:
                quarantined_set.discard(min(quarantined_set))
        healthy = tuple(sorted(healthy_set))
        preferred = tuple(
            index for index in healthy if index not in quarantined_set
        )
        scores = {
            index: 10.0 if index in quarantined_set else 1.0 + 0.01 * index
            for index in range(workers)
        }
        yield ClusterSnapshot(
            healthy,
            workers,
            {index: index in healthy_set for index in range(workers)},
            in_flight,
            "comp",
            ("f1", "f2"),
            None,
            preferred,
            scores,
            {index: index in quarantined_set for index in range(workers)},
        )


@pytest.mark.parametrize("name", sorted(ROUTING_POLICIES))
def test_policy_avoids_quarantined_while_alternatives_exist(name):
    policy = ROUTING_POLICIES[name].build(Rng(5))
    routed = 0
    for view in degraded_snapshot_stream(seed=31):
        choice = policy.decide(view)
        if not view.healthy:
            assert choice is None
            continue
        routed += 1
        assert view.is_healthy(choice)
        assert not view.is_quarantined(choice), (name, choice)
    assert routed > 0


@pytest.mark.parametrize("name", sorted(ROUTING_POLICIES))
def test_policy_still_routes_when_all_quarantined(name):
    policy = ROUTING_POLICIES[name].build(Rng(6))
    routed = 0
    for view in degraded_snapshot_stream(seed=47, all_quarantined=True):
        choice = policy.decide(view)
        if not view.healthy:
            assert choice is None
            continue
        routed += 1
        # Degraded-fleet liveness: some healthy worker, quarantined or
        # not, must take the invocation.
        assert view.is_healthy(choice)
    assert routed > 0


@pytest.mark.parametrize("name", sorted(ROUTING_POLICIES))
def test_policy_reproducible_with_health_scores(name):
    cls = ROUTING_POLICIES[name]

    def run():
        policy = cls.build(Rng(42))
        return [policy.decide(view) for view in degraded_snapshot_stream(seed=7)]

    assert run() == run()
