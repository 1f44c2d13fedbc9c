"""Reference join and group-by for ``test_kernel_equivalence``.

The row-at-a-time dict formulations that ``repro.query.operators`` used
before the sort-probe join and the factorised group-by.  They left the
product; they stay here so "same values, same row order, same dtypes"
is checked live against generated inputs rather than one frozen golden.
"""

import numpy as np

from repro.query import Table


def row_loop_join(left, right, left_key, right_key, right_prefix=""):
    index: dict = {}
    for position, value in enumerate(right.column(right_key)):
        index.setdefault(value, []).append(position)
    left_positions: list[int] = []
    right_positions: list[int] = []
    for position, value in enumerate(left.column(left_key)):
        for match in index.get(value, ()):
            left_positions.append(position)
            right_positions.append(match)
    left_idx = np.asarray(left_positions, dtype=np.int64)
    right_idx = np.asarray(right_positions, dtype=np.int64)
    columns: dict[str, np.ndarray] = {}
    for name in left.column_names:
        columns[name] = left.column(name)[left_idx]
    for name in right.column_names:
        out_name = f"{right_prefix}{name}"
        if out_name in columns:
            if name == right_key:
                continue  # equal by construction
            out_name = f"{right.name}.{name}"
        columns[out_name] = right.column(name)[right_idx]
    return Table(left.name, columns)


def row_loop_group_aggregate(table, group_by, aggregations):
    group_by = list(group_by)
    aggregations = list(aggregations)
    if table.num_rows == 0 and group_by:
        return Table(
            table.name,
            {**{g: [] for g in group_by}, **{a.output: [] for a in aggregations}},
        )
    if group_by:
        key_arrays = [table.column(name) for name in group_by]
        groups: dict[tuple, list[int]] = {}
        for row in range(table.num_rows):
            key = tuple(array[row] for array in key_arrays)
            groups.setdefault(key, []).append(row)
        keys = list(groups)
        row_groups = [np.asarray(groups[key], dtype=np.int64) for key in keys]
        columns: dict[str, list] = {
            name: [key[i] for key in keys] for i, name in enumerate(group_by)
        }
    else:
        row_groups = [np.arange(table.num_rows)]
        columns = {}
    for aggregation in aggregations:
        columns[aggregation.output] = aggregation.compute(table, row_groups)
    return Table(table.name, columns)
