"""Star Schema Benchmark: schema, data generator, and the 13 queries.

§7.7 evaluates "Star Schema Benchmark [79] queries (which are based on
the industry standard TPC-H benchmark) using 700MB of input data".
This module generates SSB data at a configurable scale factor and
implements all thirteen queries (Q1.1–Q4.3) over the columnar operator
library, both for local execution and for compilation onto Dandelion
compositions.

Scale factor 1 corresponds to ~6M lineorder rows; the reproduction's
benchmarks run small fractions of that (the shapes of the queries, not
the absolute data volume, drive the comparison with Athena).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..sim.distributions import Rng
from .columnar import Table, TableError
from .operators import (
    Aggregation,
    Predicate,
    _match_sorted,
    filter_rows,
    group_aggregate,
    sort_rows,
)

__all__ = [
    "generate_ssb_tables",
    "SSB_QUERY_NAMES",
    "DimensionSide",
    "run_ssb_query",
    "ssb_dimension_side",
]

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS_PER_REGION = 5
_CITIES_PER_NATION = 10

LINEORDER_ROWS_SF1 = 6_000_000
CUSTOMER_ROWS_SF1 = 30_000
SUPPLIER_ROWS_SF1 = 2_000
PART_ROWS_SF1 = 200_000

_MONTH_NAMES = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
]


def _nations() -> list[str]:
    names = []
    for region in REGIONS:
        for index in range(_NATIONS_PER_REGION):
            names.append(f"{region[:6]} N{index}")
    # Keep recognisable SSB names where queries depend on them.
    names[names.index("EUROPE N0")] = "UNITED KINGDOM"
    names[names.index("AMERIC N0")] = "UNITED STATES"
    return names


def _nation_region(nation_index: int) -> str:
    return REGIONS[nation_index // _NATIONS_PER_REGION]


def _city(nation: str, index: int) -> str:
    return f"{nation[:9].ljust(9)}{index}"


def _date_dimension() -> Table:
    datekeys, years, yearmonthnums, yearmonths, weeks, months = [], [], [], [], [], []
    days_in_month = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    for year in range(1992, 1999):
        day_of_year = 0
        for month in range(1, 13):
            for day in range(1, days_in_month[month - 1] + 1):
                day_of_year += 1
                datekeys.append(year * 10000 + month * 100 + day)
                years.append(year)
                yearmonthnums.append(year * 100 + month)
                yearmonths.append(f"{_MONTH_NAMES[month - 1]}{year}")
                weeks.append(min(53, 1 + day_of_year // 7))
                months.append(month)
    return Table(
        "date",
        {
            "d_datekey": datekeys,
            "d_year": years,
            "d_yearmonthnum": yearmonthnums,
            "d_yearmonth": yearmonths,
            "d_weeknuminyear": weeks,
            "d_monthnuminyear": months,
        },
    )


def generate_ssb_tables(scale_factor: float = 0.001, seed: int = 0) -> dict[str, Table]:
    """Generate the five SSB tables at ``scale_factor``.

    Returns a dict with keys ``lineorder``, ``date``, ``customer``,
    ``supplier``, ``part``.
    """
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    rng = Rng(seed)
    nations = _nations()
    date_dim = _date_dimension()
    datekeys = date_dim.column("d_datekey")

    customer_rows = max(50, int(CUSTOMER_ROWS_SF1 * scale_factor))
    supplier_rows = max(20, int(SUPPLIER_ROWS_SF1 * scale_factor))
    part_rows = max(100, int(PART_ROWS_SF1 * scale_factor))
    lineorder_rows = max(1000, int(LINEORDER_ROWS_SF1 * scale_factor))

    def entity(prefix: str, count: int, table_name: str, key_name: str) -> Table:
        keys, names, cities, nation_col, regions = [], [], [], [], []
        for index in range(count):
            nation_index = rng.randint(0, len(nations) - 1)
            nation = nations[nation_index]
            keys.append(index + 1)
            names.append(f"{prefix}#{index + 1:09d}")
            cities.append(_city(nation, rng.randint(0, _CITIES_PER_NATION - 1)))
            nation_col.append(nation)
            regions.append(_nation_region(nation_index))
        short = prefix[0].lower()
        return Table(
            table_name,
            {
                key_name: keys,
                f"{short}_name": names,
                f"{short}_city": cities,
                f"{short}_nation": nation_col,
                f"{short}_region": regions,
            },
        )

    customer = entity("Customer", customer_rows, "customer", "c_custkey")
    supplier = entity("Supplier", supplier_rows, "supplier", "s_suppkey")

    part_keys, mfgrs, categories, brands, colors = [], [], [], [], []
    for index in range(part_rows):
        mfgr_index = rng.randint(1, 5)
        category_index = rng.randint(1, 5)
        brand_index = rng.randint(1, 40)
        part_keys.append(index + 1)
        mfgrs.append(f"MFGR#{mfgr_index}")
        categories.append(f"MFGR#{mfgr_index}{category_index}")
        brands.append(f"MFGR#{mfgr_index}{category_index}{brand_index:02d}")
        colors.append(rng.choice(["red", "green", "blue", "ivory", "peach"]))
    part = Table(
        "part",
        {
            "p_partkey": part_keys,
            "p_mfgr": mfgrs,
            "p_category": categories,
            "p_brand1": brands,
            "p_color": colors,
        },
    )

    orderdate, custkey, partkey, suppkey = [], [], [], []
    quantity, extendedprice, discount, revenue, supplycost = [], [], [], [], []
    for _ in range(lineorder_rows):
        orderdate.append(int(rng.choice(datekeys)))
        custkey.append(rng.randint(1, customer_rows))
        partkey.append(rng.randint(1, part_rows))
        suppkey.append(rng.randint(1, supplier_rows))
        q = rng.randint(1, 50)
        price = rng.randint(100, 10000)
        d = rng.randint(0, 10)
        quantity.append(q)
        extendedprice.append(price)
        discount.append(d)
        revenue.append(price * (100 - d) // 100)
        supplycost.append(int(price * 0.6))
    lineorder = Table(
        "lineorder",
        {
            "lo_orderdate": orderdate,
            "lo_custkey": custkey,
            "lo_partkey": partkey,
            "lo_suppkey": suppkey,
            "lo_quantity": quantity,
            "lo_extendedprice": extendedprice,
            "lo_discount": discount,
            "lo_revenue": revenue,
            "lo_supplycost": supplycost,
        },
    )
    return {
        "lineorder": lineorder,
        "date": date_dim,
        "customer": customer,
        "supplier": supplier,
        "part": part,
    }


# -- the 13 queries -----------------------------------------------------------
#
# Every query is a star join of lineorder with filtered dimensions.  It is
# split in two: a dimension side, which depends on the dimension tables
# alone, and a probe of one lineorder table (all of it, or one partition)
# against that side.  A composition builds the side once per invocation
# and every partition probes it.

# Dimension -> (lineorder foreign key, dimension key).
_JOIN_KEYS = {
    "date": ("lo_orderdate", "d_datekey"),
    "customer": ("lo_custkey", "c_custkey"),
    "supplier": ("lo_suppkey", "s_suppkey"),
    "part": ("lo_partkey", "p_partkey"),
}


class DimensionSide:
    """An SSB query with its dimension side built, ready to probe.

    Per dimension, in join order: the rows its predicate keeps, projected
    on its key and on the columns the query ``reads``, in key order; a
    key that is not unique is a :class:`TableError`.  A probe projects
    lineorder on the foreign keys and on the ``reads`` no dimension holds,
    keeps the rows ``where`` selects, searches each dimension for the
    rows still alive, and gathers each column once into the table a
    chain of :func:`hash_join` calls would give, for ``finish``.  It only
    reads the side, so the partitions of an invocation share one.
    """

    def __init__(self, tables, dimensions: dict[str, Predicate], reads: list[str],
                 finish: Callable[[Table], Table], where: Optional[Predicate] = None):
        self._sides: dict[str, Table] = {}
        for name, predicate in dimensions.items():
            key, table = _JOIN_KEYS[name][1], tables[name]
            side = filter_rows(table, predicate).select([key, *(c for c in reads if c in table)])
            side = side.take(np.argsort(side.column(key), kind="stable"))
            keys = side.column(key)
            if not (keys[1:] > keys[:-1]).all():
                raise TableError(f"dimension {name!r} has a duplicate or NaN key {key!r}")
            self._sides[name] = side
        held = {column for side in self._sides.values() for column in side.column_names}
        self._fact = [*(_JOIN_KEYS[name][0] for name in dimensions), *(c for c in reads if c not in held)]
        self._where, self._finish = where, finish

    def probe(self, lineorder: Table) -> Table:
        """The query's result over ``lineorder``: all of it, or one partition."""
        fact = lineorder.select(self._fact)
        rows = np.arange(len(fact)) if self._where is None else np.flatnonzero(self._where.mask(fact))
        found: list[np.ndarray] = []  # per dimension so far, its side row for each of ``rows``
        for name, side in self._sides.items():
            fact_key, key = _JOIN_KEYS[name]
            hits, at = _match_sorted(fact.column(fact_key)[rows], side.column(key),
                                     f"join keys {fact_key!r} and {key!r}")
            rows, found = rows[hits], [positions[hits] for positions in found] + [at]
        columns = {name: array[rows] for name, array in fact._columns.items()}
        for side, positions in zip(self._sides.values(), found):
            columns.update({name: array[positions] for name, array in side._columns.items()})
        return self._finish(Table._of(lineorder.name, columns, len(rows)))


def _q1(tables, year_pred: Predicate, discount_low, discount_high, quantity_pred) -> DimensionSide:
    return DimensionSide(
        tables, {"date": year_pred}, ["lo_quantity", "lo_discount", "lo_extendedprice"], _q1_revenue,
        where=quantity_pred.between("lo_discount", discount_low, discount_high),
    )


def _q1_revenue(joined: Table) -> Table:
    amounts = joined.column("lo_extendedprice") * joined.column("lo_discount")
    table = Table("q1", {"amount": amounts})
    return group_aggregate(table, [], [Aggregation("revenue", "sum", "amount")])


def q1_1(tables) -> DimensionSide:
    return _q1(tables, Predicate.where("d_year", "==", 1993), 1, 3,
               Predicate.where("lo_quantity", "<", 25))


def q1_2(tables) -> DimensionSide:
    return _q1(tables, Predicate.where("d_yearmonthnum", "==", 199401), 4, 6,
               Predicate.true().between("lo_quantity", 26, 35))


def q1_3(tables) -> DimensionSide:
    return _q1(
        tables,
        Predicate.where("d_weeknuminyear", "==", 6).and_where("d_year", "==", 1994),
        5, 7,
        Predicate.true().between("lo_quantity", 26, 35),
    )


def _q2(tables, part_pred: Predicate, supplier_region: str) -> DimensionSide:
    dimensions = {
        "part": part_pred,
        "supplier": Predicate.where("s_region", "==", supplier_region),
        "date": Predicate.true(),
    }
    return DimensionSide(tables, dimensions, ["d_year", "p_brand1", "lo_revenue"], _q2_revenue)


def _q2_revenue(joined: Table) -> Table:
    result = group_aggregate(
        joined, ["d_year", "p_brand1"], [Aggregation("revenue", "sum", "lo_revenue")]
    )
    return sort_rows(result, ["d_year", "p_brand1"])


def q2_1(tables) -> DimensionSide:
    return _q2(tables, Predicate.where("p_category", "==", "MFGR#12"), "AMERICA")


def q2_2(tables) -> DimensionSide:
    return _q2(
        tables,
        Predicate.true().between("p_brand1", "MFGR#2221", "MFGR#2228"),
        "ASIA",
    )


def q2_3(tables) -> DimensionSide:
    return _q2(tables, Predicate.where("p_brand1", "==", "MFGR#2239"), "EUROPE")


def _q3(tables, customer_pred, supplier_pred, date_pred, group_cols) -> DimensionSide:
    def revenue(joined: Table) -> Table:
        result = group_aggregate(
            joined, group_cols, [Aggregation("revenue", "sum", "lo_revenue")]
        )
        return sort_rows(result, "revenue", ascending=False)

    dimensions = {"customer": customer_pred, "supplier": supplier_pred, "date": date_pred}
    return DimensionSide(tables, dimensions, [*group_cols, "lo_revenue"], revenue)


def q3_1(tables) -> DimensionSide:
    return _q3(
        tables,
        Predicate.where("c_region", "==", "ASIA"),
        Predicate.where("s_region", "==", "ASIA"),
        Predicate.true().between("d_year", 1992, 1997),
        ["c_nation", "s_nation", "d_year"],
    )


def q3_2(tables) -> DimensionSide:
    return _q3(
        tables,
        Predicate.where("c_nation", "==", "UNITED STATES"),
        Predicate.where("s_nation", "==", "UNITED STATES"),
        Predicate.true().between("d_year", 1992, 1997),
        ["c_city", "s_city", "d_year"],
    )


def _ki_cities(tables) -> list[str]:
    cities = {
        str(city)
        for city in tables["customer"].column("c_city")
        if str(city).startswith("UNITED KI")
    }
    return sorted(cities)[:2] or ["UNITED KI1", "UNITED KI5"]


def q3_3(tables) -> DimensionSide:
    cities = _ki_cities(tables)
    return _q3(
        tables,
        Predicate.true().isin("c_city", cities),
        Predicate.true().isin("s_city", cities),
        Predicate.true().between("d_year", 1992, 1997),
        ["c_city", "s_city", "d_year"],
    )


def q3_4(tables) -> DimensionSide:
    cities = _ki_cities(tables)
    return _q3(
        tables,
        Predicate.true().isin("c_city", cities),
        Predicate.true().isin("s_city", cities),
        Predicate.where("d_yearmonth", "==", "Dec1997"),
        ["c_city", "s_city", "d_year"],
    )


def _q4(tables, customer_pred, supplier_pred, part_pred, date_pred, group_cols) -> DimensionSide:
    def profit(joined: Table) -> Table:
        profits = joined.column("lo_revenue") - joined.column("lo_supplycost")
        augmented = Table(
            "q4",
            {**{c: joined.column(c) for c in group_cols}, "profit_amount": profits},
        )
        result = group_aggregate(
            augmented, group_cols, [Aggregation("profit", "sum", "profit_amount")]
        )
        return sort_rows(result, group_cols)

    dimensions = {"customer": customer_pred, "supplier": supplier_pred, "part": part_pred, "date": date_pred}
    return DimensionSide(tables, dimensions, [*group_cols, "lo_revenue", "lo_supplycost"], profit)


def q4_1(tables) -> DimensionSide:
    return _q4(
        tables,
        Predicate.where("c_region", "==", "AMERICA"),
        Predicate.where("s_region", "==", "AMERICA"),
        Predicate.true().isin("p_mfgr", ["MFGR#1", "MFGR#2"]),
        Predicate.true(),
        ["d_year", "c_nation"],
    )


def q4_2(tables) -> DimensionSide:
    return _q4(
        tables,
        Predicate.where("c_region", "==", "AMERICA"),
        Predicate.where("s_region", "==", "AMERICA"),
        Predicate.true().isin("p_mfgr", ["MFGR#1", "MFGR#2"]),
        Predicate.true().isin("d_year", [1997, 1998]),
        ["d_year", "s_nation", "p_category"],
    )


def q4_3(tables) -> DimensionSide:
    return _q4(
        tables,
        Predicate.true(),
        Predicate.where("s_nation", "==", "UNITED STATES"),
        Predicate.where("p_category", "==", "MFGR#14"),
        Predicate.true().isin("d_year", [1997, 1998]),
        ["d_year", "s_city", "p_brand1"],
    )


_QUERIES: dict[str, Callable[[dict], DimensionSide]] = {
    "Q1.1": q1_1, "Q1.2": q1_2, "Q1.3": q1_3,
    "Q2.1": q2_1, "Q2.2": q2_2, "Q2.3": q2_3,
    "Q3.1": q3_1, "Q3.2": q3_2, "Q3.3": q3_3, "Q3.4": q3_4,
    "Q4.1": q4_1, "Q4.2": q4_2, "Q4.3": q4_3,
}

SSB_QUERY_NAMES = list(_QUERIES)


def ssb_dimension_side(name: str, tables: dict[str, Table]) -> DimensionSide:
    """Query ``name``'s dimension side over ``tables`` (the four
    dimensions; lineorder is not read)."""
    if name not in _QUERIES:
        raise KeyError(f"unknown SSB query {name!r}; expected one of {SSB_QUERY_NAMES}")
    return _QUERIES[name](tables)


def run_ssb_query(name: str, tables: dict[str, Table]) -> Table:
    return ssb_dimension_side(name, tables).probe(tables["lineorder"])
