"""``generate_ssb_tables`` against the standard library's methods.

The generator's draws are ``randint`` and ``choice`` written out over
the generator's own ``getrandbits()``, and ``lo_revenue`` and
``lo_supplycost`` are computed in numpy; ``ssb_generator_oracle`` draws
the same tables through the :class:`~repro.sim.distributions.Rng`
helpers and derives those columns row by row.  Equal bytes and dtypes
for every table and an equal generator state afterwards mean every draw
was the same, in the same order, and none was added or skipped.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.query import ssb
from repro.sim.distributions import Rng

from . import ssb_generator_oracle


def _generate(module, scale_factor, seed):
    """``module``'s tables and the state of the one ``Rng`` it built."""
    made = []

    class Kept(Rng):
        def __init__(self, seed=0):
            super().__init__(seed)
            made.append(self)

    with mock.patch.object(module, "Rng", Kept):
        tables = module.generate_ssb_tables(scale_factor, seed)
    (rng,) = made
    return tables, rng._random.getstate()


def _assert_same_tables(scale_factor, seed):
    tables, state = _generate(ssb, scale_factor, seed)
    expected, expected_state = _generate(ssb_generator_oracle, scale_factor, seed)
    assert list(tables) == list(expected)
    for name, table in tables.items():
        assert table.to_bytes() == expected[name].to_bytes(), name
        assert [table.column(c).dtype for c in table.column_names] == [
            expected[name].column(c).dtype for c in expected[name].column_names
        ], name
    assert state == expected_state


@settings(max_examples=40, deadline=None)
@given(scale_factor=st.floats(1e-5, 5e-4), seed=st.integers())
def test_tables_equal_the_standard_library_draws(scale_factor, seed):
    _assert_same_tables(scale_factor, seed)


def test_tables_equal_at_the_benchmark_input():
    _assert_same_tables(0.005, 0)
