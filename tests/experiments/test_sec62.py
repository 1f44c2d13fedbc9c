"""Reduced §6.2 scheduling-sweep smoke test: shape, ordering, determinism."""

from repro.experiments import run_sec62
from repro.scenario import load_spec


def _sec62_small():
    base = load_spec("sec62").with_overrides({
        "trace.rps_per_worker": 150.0,
        "trace.duration_seconds": 1.5,
        "trace.apps": 8,
    })
    return run_sec62(base, fleet_sizes=(4,))


def test_sec62_shape_and_goodput():
    result = _sec62_small()
    policies = [row["policy"] for row in result.rows]
    assert policies == ["round_robin", "least_loaded", "random", "jsq", "locality"]
    for row in result.rows:
        assert row["goodput_rps"] > 0
        assert row["success_pct"] == 100.0
        assert row["p99_ms"] >= row["p50_ms"]
        assert row["imbalance"] >= 1.0
    # Every policy saw the identical offered stream.
    assert len({row["offered_rps"] for row in result.rows}) == 1


def test_sec62_locality_cuts_tail_versus_random():
    result = _sec62_small()
    random_p99 = result.row(policy="random")["p99_ms"]
    locality_p99 = result.row(policy="locality")["p99_ms"]
    # Warm-binary affinity removes repeat load-from-disk stalls, the
    # experiment's headline effect; leave jsq-vs-random to the full-size
    # run (sampling gains need a larger fleet to rise above noise).
    assert locality_p99 < random_p99


def test_sec62_deterministic():
    assert _sec62_small().render() == _sec62_small().render()
