"""Tests for SSB generation/queries, the SQL engine, and the Athena model."""

import math
from unittest import mock

import numpy as np
import pytest

from repro.query import (
    AthenaModel,
    Ec2CostModel,
    SSB_QUERY_NAMES,
    SqlDatabase,
    SqlError,
    Table,
    generate_ssb_tables,
    parse_sql,
    run_ssb_query,
)
from repro.sim.distributions import Rng


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb_tables(scale_factor=0.002, seed=1)


def test_schema_shapes(ssb):
    assert set(ssb) == {"lineorder", "date", "customer", "supplier", "part"}
    assert ssb["lineorder"].num_rows >= 1000
    assert ssb["date"].num_rows == 7 * 365
    assert "lo_revenue" in ssb["lineorder"]
    assert "d_yearmonth" in ssb["date"]


def test_generation_deterministic():
    a = generate_ssb_tables(scale_factor=0.001, seed=9)
    b = generate_ssb_tables(scale_factor=0.001, seed=9)
    assert list(a) == list(b)
    for name, table in a.items():
        assert table.to_bytes() == b[name].to_bytes(), name


def test_scale_factor_scales_rows():
    small = generate_ssb_tables(scale_factor=0.001, seed=1)
    large = generate_ssb_tables(scale_factor=0.004, seed=1)
    assert large["lineorder"].num_rows > 2 * small["lineorder"].num_rows


def test_invalid_scale_factor():
    for scale_factor in (0, -0.5, math.nan, math.inf, -math.inf):
        # No generator is built, so none is drawn from.
        with mock.patch("repro.query.ssb.Rng", wraps=Rng) as rng:
            with pytest.raises(ValueError, match="positive and finite"):
                generate_ssb_tables(scale_factor=scale_factor)
        rng.assert_not_called()


def test_foreign_keys_resolve(ssb):
    lineorder = ssb["lineorder"]
    assert lineorder.column("lo_custkey").max() <= ssb["customer"].num_rows
    assert lineorder.column("lo_suppkey").max() <= ssb["supplier"].num_rows
    assert lineorder.column("lo_partkey").max() <= ssb["part"].num_rows
    datekeys = set(ssb["date"].column("d_datekey").tolist())
    assert set(lineorder.column("lo_orderdate").tolist()) <= datekeys


def test_all_13_queries_run(ssb):
    assert len(SSB_QUERY_NAMES) == 13
    for name in SSB_QUERY_NAMES:
        result = run_ssb_query(name, ssb)
        assert isinstance(result, Table)


def test_q1_1_matches_manual_computation(ssb):
    lineorder, date = ssb["lineorder"], ssb["date"]
    year_1993 = set(
        date.take(date.column("d_year") == 1993).column("d_datekey").tolist()
    )
    mask = (
        np.isin(lineorder.column("lo_orderdate"), list(year_1993))
        & (lineorder.column("lo_discount") >= 1)
        & (lineorder.column("lo_discount") <= 3)
        & (lineorder.column("lo_quantity") < 25)
    )
    expected = int(
        (lineorder.column("lo_extendedprice")[mask] * lineorder.column("lo_discount")[mask]).sum()
    )
    result = run_ssb_query("Q1.1", ssb)
    assert int(result.column("revenue")[0]) == expected


def test_q2_results_sorted(ssb):
    result = run_ssb_query("Q2.1", ssb)
    years = result.column("d_year").tolist()
    assert years == sorted(years)


def test_q3_sorted_by_revenue_desc(ssb):
    result = run_ssb_query("Q3.1", ssb)
    revenue = result.column("revenue").tolist()
    assert revenue == sorted(revenue, reverse=True)


def test_q4_profit_positive(ssb):
    result = run_ssb_query("Q4.1", ssb)
    if result.num_rows:
        assert (result.column("profit") > 0).all()


def test_unknown_query_rejected(ssb):
    with pytest.raises(KeyError):
        run_ssb_query("Q9.9", ssb)


# -- SQL engine ------------------------------------------------------------


@pytest.fixture()
def movie_db():
    db = SqlDatabase()
    db.add_table(Table("movies", {
        "title": ["Alpha", "Beta", "Gamma", "Delta"],
        "rating": [8.1, 9.2, 7.0, 8.9],
        "year": [2001, 2010, 1999, 2010],
    }))
    return db


def test_sql_select_star(movie_db):
    assert len(movie_db.execute_rows("SELECT * FROM movies")) == 4


def test_sql_projection_and_alias(movie_db):
    rows = movie_db.execute_rows("SELECT title AS name FROM movies LIMIT 1")
    assert rows == [{"name": "Alpha"}]


def test_sql_where_and(movie_db):
    rows = movie_db.execute_rows("SELECT title FROM movies WHERE rating > 8 AND year = 2010")
    assert [r["title"] for r in rows] == ["Beta", "Delta"]


def test_sql_string_literal(movie_db):
    rows = movie_db.execute_rows("SELECT year FROM movies WHERE title = 'Gamma'")
    assert rows == [{"year": 1999}]


def test_sql_count_star(movie_db):
    assert movie_db.execute_rows("SELECT COUNT(*) AS n FROM movies") == [{"n": 4}]


def test_sql_avg(movie_db):
    rows = movie_db.execute_rows("SELECT AVG(rating) AS r FROM movies")
    assert rows[0]["r"] == pytest.approx(8.3)


def test_sql_group_by(movie_db):
    rows = movie_db.execute_rows(
        "SELECT year, COUNT(*) AS n FROM movies GROUP BY year ORDER BY year"
    )
    assert rows == [{"year": 1999, "n": 1}, {"year": 2001, "n": 1}, {"year": 2010, "n": 2}]


def test_sql_order_desc_limit(movie_db):
    rows = movie_db.execute_rows("SELECT title FROM movies ORDER BY rating DESC LIMIT 2")
    assert [r["title"] for r in rows] == ["Beta", "Delta"]


def test_sql_semicolon_tolerated(movie_db):
    assert movie_db.execute_rows("SELECT COUNT(*) AS n FROM movies;") == [{"n": 4}]


def test_sql_errors(movie_db):
    with pytest.raises(SqlError):
        movie_db.execute("SELECT FROM movies")
    with pytest.raises(SqlError):
        movie_db.execute("SELECT * FROM ghost")
    with pytest.raises(SqlError):
        movie_db.execute("SELECT title FROM movies WHERE rating LIKE 8")
    with pytest.raises(SqlError):
        movie_db.execute("SELECT title, COUNT(*) AS n FROM movies")  # not grouped
    with pytest.raises(SqlError):
        movie_db.execute("SELECT AVG(*) FROM movies")
    with pytest.raises(SqlError):
        movie_db.execute("")


def test_parse_sql_structure():
    query = parse_sql("SELECT a, SUM(b) AS total FROM t WHERE c >= 5 GROUP BY a ORDER BY total DESC LIMIT 3")
    assert query.table == "t"
    assert query.group_by == ["a"]
    assert query.order_by == "total"
    assert query.order_desc
    assert query.limit_count == 3
    assert query.where[0].op == ">="
    assert query.has_aggregates


# -- Athena / EC2 cost models --------------------------------------------------


def test_athena_minimum_billing():
    model = AthenaModel()
    assert model.cost_usd(0) == model.cost_usd(10e6)
    assert model.cost_usd(700e6) == pytest.approx(700e6 / 1e12 * 5.0)


def test_athena_cost_cents_for_700mb():
    # Paper Fig 9 regime: ~700 MB input -> ~0.35 cents per query.
    assert AthenaModel().cost_cents(700e6) == pytest.approx(0.35)


def test_athena_latency_startup_dominates_small_queries():
    model = AthenaModel()
    assert model.latency_seconds(10e6) >= model.startup_seconds
    assert model.latency_seconds(100e9) > model.latency_seconds(10e6)


def test_athena_validation():
    with pytest.raises(ValueError):
        AthenaModel().latency_seconds(-1)
    with pytest.raises(ValueError):
        AthenaModel().cost_usd(-1)


def test_ec2_cost_model():
    model = Ec2CostModel()
    assert model.cost_usd(3600) == pytest.approx(model.hourly_usd)
    assert model.cost_cents(0) == 0
    with pytest.raises(ValueError):
        model.cost_usd(-1)
