"""Tests for relational operators."""

import numpy as np
import pytest

from repro.query import (
    Aggregation,
    Predicate,
    Table,
    TableError,
    filter_rows,
    group_aggregate,
    hash_join,
    limit,
    project,
    sort_rows,
)


def orders():
    return Table("orders", {
        "id": [1, 2, 3, 4, 5],
        "customer": [10, 20, 10, 30, 20],
        "amount": [100, 250, 300, 50, 400],
        "region": ["east", "west", "east", "east", "west"],
    })


def customers():
    return Table("customers", {
        "custkey": [10, 20, 40],
        "cname": ["alice", "bob", "dora"],
    })


def test_predicate_single_clause():
    result = filter_rows(orders(), Predicate.where("amount", ">", 100))
    assert result.column("id").tolist() == [2, 3, 5]


def test_predicate_conjunction():
    predicate = Predicate.where("amount", ">", 100).and_where("region", "==", "east")
    assert filter_rows(orders(), predicate).column("id").tolist() == [3]


def test_predicate_between_and_isin():
    predicate = Predicate.true().between("amount", 100, 300).isin("customer", [10, 30])
    assert filter_rows(orders(), predicate).column("id").tolist() == [1, 3]


def test_predicate_true_keeps_all():
    assert filter_rows(orders(), Predicate.true()).num_rows == 5


def test_predicate_unknown_operator():
    with pytest.raises(TableError):
        Predicate.where("a", "~", 1)


def test_project():
    result = project(orders(), ["id", "amount"])
    assert result.column_names == ["id", "amount"]


def test_hash_join_inner():
    joined = hash_join(orders(), customers(), "customer", "custkey")
    # customer 30 has no match; customer 40 no orders.
    assert joined.num_rows == 4
    names = list(joined.column("cname"))
    assert set(names) == {"alice", "bob"}


def test_hash_join_preserves_left_order():
    joined = hash_join(orders(), customers(), "customer", "custkey")
    assert joined.column("id").tolist() == [1, 2, 3, 5]


def test_hash_join_duplicate_right_keys_multiply():
    right = Table("r", {"k": [10, 10], "tag": ["x", "y"]})
    joined = hash_join(orders(), right, "customer", "k")
    # Orders 1 and 3 (customer 10) each match twice.
    assert joined.num_rows == 4


def test_hash_join_empty_result():
    right = Table("r", {"k": [99], "v": [1]})
    assert hash_join(orders(), right, "customer", "k").num_rows == 0


def test_group_aggregate_sum_count():
    result = group_aggregate(
        orders(), ["region"],
        [Aggregation("total", "sum", "amount"), Aggregation("n", "count")],
    )
    rows = {row["region"]: row for row in result.to_rows()}
    assert rows["east"]["total"] == 450
    assert rows["east"]["n"] == 3
    assert rows["west"]["total"] == 650
    assert rows["west"]["n"] == 2


def test_group_aggregate_min_max_avg():
    result = group_aggregate(
        orders(), [],
        [
            Aggregation("lo", "min", "amount"),
            Aggregation("hi", "max", "amount"),
            Aggregation("mean", "avg", "amount"),
        ],
    )
    row = result.to_rows()[0]
    assert row["lo"] == 50
    assert row["hi"] == 400
    assert row["mean"] == pytest.approx(220.0)


def test_group_aggregate_global_group():
    result = group_aggregate(orders(), [], [Aggregation("total", "sum", "amount")])
    assert result.num_rows == 1
    assert result.to_rows()[0]["total"] == 1100


def test_group_aggregate_global_group_over_no_rows():
    empty = orders().take(np.array([], dtype=np.int64))
    totals = group_aggregate(empty, [], [Aggregation("total", "sum", "amount"), Aggregation("n", "count")])
    assert totals.to_rows() == [{"total": 0, "n": 0}]
    for function in ("min", "max"):
        with pytest.raises(TableError, match=f"{function}\\(amount\\)"):
            group_aggregate(empty, [], [Aggregation("x", function, "amount")])


def test_group_aggregate_empty_input_with_groups():
    empty = orders().take(np.array([], dtype=np.int64))
    result = group_aggregate(empty, ["region"], [Aggregation("n", "count")])
    assert result.num_rows == 0


def test_aggregation_validation():
    with pytest.raises(TableError):
        Aggregation("x", "median", "a")
    with pytest.raises(TableError):
        Aggregation("x", "sum")  # needs a column
    with pytest.raises(TableError):
        group_aggregate(orders(), ["region"], [])


def test_sort_single_key():
    result = sort_rows(orders(), "amount")
    assert result.column("amount").tolist() == [50, 100, 250, 300, 400]


def test_sort_descending():
    result = sort_rows(orders(), "amount", ascending=False)
    assert result.column("amount").tolist() == [400, 300, 250, 100, 50]


def test_sort_multi_key():
    result = sort_rows(orders(), ["region", "amount"])
    assert result.column("region").tolist() == ["east", "east", "east", "west", "west"]
    assert result.column("amount").tolist() == [50, 100, 300, 250, 400]


def test_sort_string_key():
    result = sort_rows(customers(), "cname", ascending=False)
    assert list(result.column("cname")) == ["dora", "bob", "alice"]


def test_sort_requires_key():
    with pytest.raises(TableError):
        sort_rows(orders(), [])


def test_limit():
    assert limit(orders(), 2).num_rows == 2
    assert limit(orders(), 0).num_rows == 0
    with pytest.raises(TableError):
        limit(orders(), -1)


def test_sort_objects_that_are_not_str_by_their_str():
    table = Table("t", {"x": np.asarray([10, 9, 100], dtype=object)})
    assert sort_rows(table, "x").column("x").tolist() == [10, 100, 9]
