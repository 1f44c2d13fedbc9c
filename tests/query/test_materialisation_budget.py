"""String values built per SSB query: an exact, deterministic pin.

A parsed string column stays undecoded until an operator reads it, so a
query pays only for the strings it filters, joins, groups or sorts on.
Any growth here is a column being decoded that the query never looks at.
"""

from collections import Counter

import pytest

from repro.query import Table, columnar, generate_ssb_tables, register_ssb_query

from .test_plan_to_dag import make_worker_with_store

PARTITIONS = 2


@pytest.fixture
def strings_built(monkeypatch):
    """Column name -> Python strings built, over every table alive."""
    built: Counter = Counter()
    pending: list[int] = []
    real_values = columnar._LazyStrings.values
    real_column = Table.column

    def values(self):
        # ``_values is None`` is the column's own "not decoded yet" test.
        if self._values is None:
            pending.append(len(self))
        return real_values(self)

    def column(self, name):
        result = real_column(self, name)
        while pending:
            built[name] += pending.pop()
        return result

    monkeypatch.setattr(columnar._LazyStrings, "values", values)
    monkeypatch.setattr(Table, "column", column)
    return built


def run_query(query: str):
    tables = generate_ssb_tables(scale_factor=0.001, seed=0)
    worker, _store, _manifest = make_worker_with_store(tables, partitions=PARTITIONS)
    composition = register_ssb_query(worker, query, partitions=PARTITIONS)
    assert worker.invoke_and_run(composition, {"query": query.encode()}).ok
    return tables


def test_q1_1_builds_no_strings(strings_built):
    run_query("Q1.1")
    assert strings_built == {}


def test_q2_1_builds_only_its_filter_and_group_columns(strings_built):
    tables = run_query("Q2.1")
    # Each of the two partials filters all of part on p_category and all
    # of supplier on s_region; p_brand1 is built only for the rows that
    # survive the three joins and for the partial-result rows ``final``
    # merges — 97 strings at this scale, not 2 x 200 part rows.
    assert strings_built == {
        "p_category": PARTITIONS * tables["part"].num_rows,
        "s_region": PARTITIONS * tables["supplier"].num_rows,
        "p_brand1": 97,
    }
