"""``generate_functions`` against the standard library's methods.

The population's draws are ``uniform``, ``choice`` and
``lognormvariate`` written out over the generator's own ``random()``
and ``getrandbits()``; ``population_oracle`` is the same population
drawn through the :class:`~repro.sim.distributions.Rng` helpers.  Equal
functions and an equal generator state afterwards mean every draw was
the same, in the same order, and none was added or skipped.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.distributions import Rng
from repro.trace.azure import generate_functions

from .population_oracle import generate_functions as oracle_functions


@settings(max_examples=80, deadline=None)
@given(
    count=st.integers(1, 600),
    total_rps=st.floats(0.01, 5_000.0),
    seed=st.integers(),
)
def test_population_equals_the_standard_library_draws(count, total_rps, seed):
    rng, oracle_rng = Rng(seed), Rng(seed)
    assert generate_functions(count, total_rps, rng) == oracle_functions(
        count, total_rps, oracle_rng
    )
    assert rng._random.getstate() == oracle_rng._random.getstate()
