"""Unit tests for the seeded random-variate helpers."""

import pytest

from repro.sim import Rng


def test_same_seed_same_stream():
    a = Rng(42)
    b = Rng(42)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_different_seeds_differ():
    assert Rng(1).uniform() != Rng(2).uniform()


def test_fork_is_stable_and_independent():
    root = Rng(7)
    fork_a1 = root.fork(1)
    fork_a2 = Rng(7).fork(1)
    assert fork_a1.uniform() == fork_a2.uniform()
    assert Rng(7).fork(1).uniform() != Rng(7).fork(2).uniform()


def test_exponential_mean_roughly_correct():
    rng = Rng(3)
    samples = [rng.exponential(2.0) for _ in range(20000)]
    mean = sum(samples) / len(samples)
    assert 1.9 < mean < 2.1


def test_exponential_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        Rng(0).exponential(0)


def test_lognormal_median_roughly_correct():
    rng = Rng(5)
    samples = sorted(rng.lognormal(100.0, 1.0) for _ in range(20001))
    median = samples[len(samples) // 2]
    assert 90 < median < 110


def test_zipf_weights_normalised_and_decreasing():
    weights = Rng(0).zipf_weights(10, skew=1.0)
    assert sum(weights) == pytest.approx(1.0)
    assert all(weights[i] >= weights[i + 1] for i in range(9))


def test_zipf_weights_invalid_count():
    with pytest.raises(ValueError):
        Rng(0).zipf_weights(0)


def test_bernoulli_bounds():
    rng = Rng(1)
    assert all(not rng.bernoulli(0.0) for _ in range(100))
    assert all(rng.bernoulli(1.0) for _ in range(100))
    with pytest.raises(ValueError):
        rng.bernoulli(1.5)


def test_poisson_arrivals_sorted_within_window():
    rng = Rng(11)
    arrivals = rng.poisson_arrivals(rate=50, duration=10, start=2)
    assert arrivals == sorted(arrivals)
    assert all(2 <= t < 12 for t in arrivals)
    # rate 50 over 10s -> ~500 arrivals
    assert 400 < len(arrivals) < 600


def test_poisson_zero_rate_empty():
    assert Rng(0).poisson_arrivals(0, 100) == []


def test_poisson_negative_rate_rejected():
    with pytest.raises(ValueError):
        Rng(0).poisson_arrivals(-1, 10)


def test_piecewise_poisson_segments_sequential():
    rng = Rng(13)
    arrivals = rng.piecewise_poisson_arrivals([(5, 100), (5, 0), (5, 100)])
    assert arrivals == sorted(arrivals)
    middle = [t for t in arrivals if 5 <= t < 10]
    assert middle == []
    assert any(t < 5 for t in arrivals)
    assert any(t >= 10 for t in arrivals)


def test_sample_and_choice_respect_population():
    rng = Rng(17)
    population = list(range(100))
    picked = rng.sample(population, 10)
    assert len(set(picked)) == 10
    assert all(p in population for p in picked)
    assert rng.choice(population) in population


def test_randint_inclusive_bounds():
    rng = Rng(19)
    values = {rng.randint(1, 3) for _ in range(200)}
    assert values == {1, 2, 3}
