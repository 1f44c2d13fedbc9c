"""Reference probe for ``test_probe_equivalence``.

The chain ``DimensionSide.probe`` ran before it cascaded: project
lineorder, filter it with ``where``, then one ``hash_join`` per dimension
in join order, each gathering every column of the running table.  It
left the product; it stays here so the one-gather probe is checked
against it on generated partitions.
"""

from repro.query import filter_rows, hash_join
from repro.query.ssb import _JOIN_KEYS


def chained_join(side, lineorder):
    """The table ``side`` hands its ``finish`` for ``lineorder``."""
    joined = lineorder.select(side._fact)
    if side._where is not None:
        joined = filter_rows(joined, side._where)
    for name, dimension in side._sides.items():
        joined = hash_join(joined, dimension, *_JOIN_KEYS[name])
    return joined
