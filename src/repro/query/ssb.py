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

The generator's draws are the standard library's ``randint`` and
``choice`` written out over the seeded generator's ``getrandbits``, and
the derived lineorder columns (``lo_revenue``, ``lo_supplycost``) are
computed with numpy; ``tests/query/test_ssb_generator_equivalence.py``
checks both against the same tables drawn through the
:class:`~repro.sim.distributions.Rng` helpers
(``tests/query/ssb_generator_oracle.py``).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..sim.distributions import Rng
from .columnar import Table, TableError
from .operators import (
    Aggregation,
    Predicate,
    _aggregate_runs,
    _dense_index,
    _group_runs,
    _listed,
    _match_sorted,
    _no_groups,
    filter_rows,
    group_aggregate,
    sort_rows,
)

__all__ = [
    "generate_ssb_tables",
    "SSB_QUERIES",
    "SSB_QUERY_NAMES",
    "SsbQuery",
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
_COLORS = ("red", "green", "blue", "ivory", "peach")


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
    ``supplier``, ``part``.  The rows draw from ``Rng(seed)`` row by row,
    column by column.  Each draw is the standard library's ``randint`` or
    ``choice`` written out over the generator's ``getrandbits``
    (``_randbelow(n)``: ``n.bit_length()`` bits, redrawn while ``>= n``),
    which saves the four method layers around it.  The lineorder loop
    keeps only each draw's offset; its columns, ``lo_revenue`` and
    ``lo_supplycost`` among them, are computed in numpy with the same
    integer and IEEE-double operations as row-by-row Python.
    ``tests/query/test_ssb_generator_equivalence.py`` checks the tables
    and the generator's final state against the same draws made through
    :meth:`Rng.randint` and :meth:`Rng.choice`.
    """
    if not 0 < scale_factor < math.inf:
        raise ValueError("scale_factor must be positive and finite")
    rng = Rng(seed)
    getrandbits = rng._random.getrandbits
    nations = _nations()
    date_dim = _date_dimension()

    customer_rows = max(50, int(CUSTOMER_ROWS_SF1 * scale_factor))
    supplier_rows = max(20, int(SUPPLIER_ROWS_SF1 * scale_factor))
    part_rows = max(100, int(PART_ROWS_SF1 * scale_factor))
    lineorder_rows = max(1000, int(LINEORDER_ROWS_SF1 * scale_factor))

    def below(n: int) -> int:
        """``_randbelow(n)``: ``randint(a, a + n - 1)`` is ``a + below(n)``,
        ``choice(seq)`` is ``seq[below(len(seq))]``."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def entity(prefix: str, count: int, table_name: str, key_name: str) -> Table:
        names, cities, nation_col, regions = [], [], [], []
        for index in range(count):
            nation_index = below(len(nations))
            nation = nations[nation_index]
            names.append(f"{prefix}#{index + 1:09d}")
            cities.append(_city(nation, below(_CITIES_PER_NATION)))
            nation_col.append(nation)
            regions.append(_nation_region(nation_index))
        short = prefix[0].lower()
        return Table(
            table_name,
            {
                key_name: np.arange(1, count + 1, dtype=np.int64),
                f"{short}_name": names,
                f"{short}_city": cities,
                f"{short}_nation": nation_col,
                f"{short}_region": regions,
            },
        )

    customer = entity("Customer", customer_rows, "customer", "c_custkey")
    supplier = entity("Supplier", supplier_rows, "supplier", "s_suppkey")

    mfgrs, categories, brands, colors = [], [], [], []
    for _ in range(part_rows):
        mfgr_index = 1 + below(5)
        category_index = 1 + below(5)
        brand_index = 1 + below(40)
        mfgrs.append(f"MFGR#{mfgr_index}")
        categories.append(f"MFGR#{mfgr_index}{category_index}")
        brands.append(f"MFGR#{mfgr_index}{category_index}{brand_index:02d}")
        colors.append(_COLORS[below(len(_COLORS))])
    part = Table(
        "part",
        {
            "p_partkey": np.arange(1, part_rows + 1, dtype=np.int64),
            "p_mfgr": mfgrs,
            "p_category": categories,
            "p_brand1": brands,
            "p_color": colors,
        },
    )

    # Each lineorder column is randint(low, high), but lo_orderdate, a
    # choice over the date keys: it draws an index, looked up afterwards.
    datekeys = date_dim.column("d_datekey")
    bounds = ((0, len(datekeys) - 1), (1, customer_rows), (1, part_rows), (1, supplier_rows),
              (1, 50), (100, 10_000), (0, 10))
    lows = [low for low, _ in bounds]
    widths = [high - low + 1 for low, high in bounds]
    drawn = [[] for _ in widths]
    draws = [(column.append, n, n.bit_length()) for column, n in zip(drawn, widths)]
    for _ in range(lineorder_rows):
        for append, n, k in draws:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            append(r)
    date_index, custkey, partkey, suppkey, quantity, extendedprice, discount = (
        np.asarray(column, dtype=np.int64) + low for column, low in zip(drawn, lows)
    )
    lineorder = Table(
        "lineorder",
        {
            "lo_orderdate": datekeys[date_index],
            "lo_custkey": custkey,
            "lo_partkey": partkey,
            "lo_suppkey": suppkey,
            "lo_quantity": quantity,
            "lo_extendedprice": extendedprice,
            "lo_discount": discount,
            "lo_revenue": extendedprice * (100 - discount) // 100,
            "lo_supplycost": (extendedprice * 0.6).astype(np.int64),
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
# Every query is a star join of lineorder with filtered dimensions and a sum
# per group, declared once (:class:`SsbQuery`).  It runs in two parts: a
# dimension side, which depends on the dimension tables alone, and a probe
# of one lineorder table (all of it, or one partition) against that side.
# A composition builds the side once per invocation, every partition probes
# it, and ``final`` merges the partial sums by the same declaration.

# Dimension -> (lineorder foreign key, dimension key).
_JOIN_KEYS = {
    "date": ("lo_orderdate", "d_datekey"),
    "customer": ("lo_custkey", "c_custkey"),
    "supplier": ("lo_suppkey", "s_suppkey"),
    "part": ("lo_partkey", "p_partkey"),
}

_ARITHMETIC = {"*": np.multiply, "-": np.subtract}


class SsbQuery(NamedTuple):
    """One SSB query.  ``dimensions`` maps each dimension, in join order,
    to the predicate that keeps its rows (or to a function of the tables
    giving it); ``where`` filters lineorder.  The ``measure``, a lineorder
    column or ``"a * b"`` / ``"a - b"`` of two, is summed per ``group_by``
    group (each column held by a dimension) into column ``output`` of a
    table named ``table``.  ``order`` is None, ``"keys"`` (group keys
    ascending) or ``"desc"`` (``output`` descending)."""

    dimensions: dict
    group_by: tuple
    measure: str
    output: str
    table: str
    order: Optional[str] = None
    where: Optional[Predicate] = None

    def merge(self, partials: "list[Table]") -> Table:
        """The result from the probes' partial results, in order."""
        merged = partials[0].concat(*partials[1:])
        result = group_aggregate(merged, self.group_by, [Aggregation(self.output, "sum", self.output)])
        if self.order == "keys":
            return sort_rows(result, list(self.group_by))
        return sort_rows(result, self.output, ascending=False) if self.order == "desc" else result


class DimensionSide:
    """An SSB query with its dimension side built, ready to probe.

    Per dimension, in join order: the rows its predicate keeps, projected
    on its key and on the query's group columns it holds, in key order; a
    key that is not unique is a :class:`TableError`.  Each group column is
    coded once: its sorted distinct values and each side row's index among
    them.  A probe keeps the lineorder rows ``where`` selects, searches
    each dimension for the rows still alive, mixes the codes of the side
    rows found into one group per joined row, sums the measure per group,
    and looks up group values for the result rows alone.  It only reads
    the side, so the partitions of an invocation share one.
    """

    def __init__(self, tables, query: SsbQuery):
        self.query = query
        self._sides: dict[str, Table] = {}
        self._searches = []  # per dimension: fact key column, side keys, both named, dense index
        for name, predicate in query.dimensions.items():
            (fact_key, key), table = _JOIN_KEYS[name], tables[name]
            predicate = predicate(tables) if callable(predicate) else predicate
            side = filter_rows(table, predicate).select([key, *(c for c in query.group_by if c in table)])
            side = side.take(np.argsort(side.column(key), kind="stable"))
            keys = side.column(key)
            if not (keys[1:] > keys[:-1]).all():
                raise TableError(f"dimension {name!r} has a duplicate or NaN key {key!r}")
            self._sides[name] = side
            label = f"join keys {fact_key!r} and {key!r}"
            self._searches.append((fact_key, keys, label, _dense_index(keys)))
        sides = list(self._sides.values())
        self._codes = []  # per group column: its side's index, distinct values, each side row's index into them
        for column in query.group_by:
            index = next(i for i, side in enumerate(sides) if column in side)
            try:
                uniques, inverse = np.unique(sides[index].column(column), return_inverse=True)
            except TypeError as exc:
                raise TableError(f"group key {column!r} does not sort: {exc}") from exc
            self._codes.append((index, uniques, inverse))
        self._measure = query.measure.split()
        self._sum = [Aggregation(query.output, "sum", query.output)]

    def probe(self, lineorder: Table) -> Table:
        """The query's partial result over ``lineorder``: all of it, or one partition."""
        query = self.query
        rows = np.arange(len(lineorder)) if query.where is None else np.flatnonzero(query.where.mask(lineorder))
        found: list[np.ndarray] = []  # per dimension so far, its side row for each of ``rows``
        for fact_key, keys, label, dense in self._searches:
            hits, at = _match_sorted(lineorder.column(fact_key)[rows], keys, label, dense)
            rows, found = rows[hits], [positions[hits] for positions in found] + [at]
        if query.group_by and not len(rows):
            return _no_groups(query.table, [*query.group_by, query.output])
        first, *rest = self._measure
        measure = lineorder.column(first)[rows]
        if rest:
            measure = _ARITHMETIC[rest[0]](measure, lineorder.column(rest[1])[rows])
        codes = [(uniques, inverse[found[index]]) for index, uniques, inverse in self._codes]
        order, starts, groups = _group_runs([(len(uniques), code) for uniques, code in codes],
                                            by_appearance=query.order == "desc")
        columns = {}
        if codes:
            first_rows = order[starts[groups]]
            columns = {column: _listed(uniques[code[first_rows]])
                       for column, (uniques, code) in zip(query.group_by, codes)}
        sums = Table._of(query.table, {query.output: measure}, len(rows))
        result = _aggregate_runs(sums, columns, self._sum, order, starts, groups)
        return sort_rows(result, query.output, ascending=False) if query.order == "desc" else result


def _q1(year_pred: Predicate, discount_low, discount_high, quantity_pred) -> SsbQuery:
    return SsbQuery({"date": year_pred}, (), "lo_extendedprice * lo_discount", "revenue", "q1",
                    where=quantity_pred.between("lo_discount", discount_low, discount_high))


def _q2(part_pred: Predicate, supplier_region: str) -> SsbQuery:
    dimensions = {
        "part": part_pred,
        "supplier": Predicate.where("s_region", "==", supplier_region),
        "date": Predicate.true(),
    }
    return SsbQuery(dimensions, ("d_year", "p_brand1"), "lo_revenue", "revenue", "lineorder", "keys")


def _q3(customer_pred, supplier_pred, date_pred, group_by) -> SsbQuery:
    dimensions = {"customer": customer_pred, "supplier": supplier_pred, "date": date_pred}
    return SsbQuery(dimensions, group_by, "lo_revenue", "revenue", "lineorder", "desc")


def _q4(customer_pred, supplier_pred, part_pred, date_pred, group_by) -> SsbQuery:
    dimensions = {"customer": customer_pred, "supplier": supplier_pred, "part": part_pred, "date": date_pred}
    return SsbQuery(dimensions, group_by, "lo_revenue - lo_supplycost", "profit", "q4", "keys")


def _in_ki_cities(column: str) -> Callable[[dict], Predicate]:
    """Rows whose ``column`` is one of the first two "UNITED KI" cities
    customers live in."""
    def predicate(tables) -> Predicate:
        cities = {str(city) for city in tables["customer"].column("c_city") if str(city).startswith("UNITED KI")}
        return Predicate.true().isin(column, sorted(cities)[:2] or ["UNITED KI1", "UNITED KI5"])
    return predicate


_AMERICA = Predicate.where("c_region", "==", "AMERICA"), Predicate.where("s_region", "==", "AMERICA")
_MFGR_1_2 = Predicate.true().isin("p_mfgr", ["MFGR#1", "MFGR#2"])
_1992_TO_1997 = Predicate.true().between("d_year", 1992, 1997)

SSB_QUERIES: dict[str, SsbQuery] = {
    "Q1.1": _q1(Predicate.where("d_year", "==", 1993), 1, 3, Predicate.where("lo_quantity", "<", 25)),
    "Q1.2": _q1(Predicate.where("d_yearmonthnum", "==", 199401), 4, 6,
                Predicate.true().between("lo_quantity", 26, 35)),
    "Q1.3": _q1(Predicate.where("d_weeknuminyear", "==", 6).and_where("d_year", "==", 1994), 5, 7,
                Predicate.true().between("lo_quantity", 26, 35)),
    "Q2.1": _q2(Predicate.where("p_category", "==", "MFGR#12"), "AMERICA"),
    "Q2.2": _q2(Predicate.true().between("p_brand1", "MFGR#2221", "MFGR#2228"), "ASIA"),
    "Q2.3": _q2(Predicate.where("p_brand1", "==", "MFGR#2239"), "EUROPE"),
    "Q3.1": _q3(Predicate.where("c_region", "==", "ASIA"), Predicate.where("s_region", "==", "ASIA"),
                _1992_TO_1997, ("c_nation", "s_nation", "d_year")),
    "Q3.2": _q3(Predicate.where("c_nation", "==", "UNITED STATES"),
                Predicate.where("s_nation", "==", "UNITED STATES"),
                _1992_TO_1997, ("c_city", "s_city", "d_year")),
    "Q3.3": _q3(_in_ki_cities("c_city"), _in_ki_cities("s_city"), _1992_TO_1997, ("c_city", "s_city", "d_year")),
    "Q3.4": _q3(_in_ki_cities("c_city"), _in_ki_cities("s_city"), Predicate.where("d_yearmonth", "==", "Dec1997"),
                ("c_city", "s_city", "d_year")),
    "Q4.1": _q4(*_AMERICA, _MFGR_1_2, Predicate.true(), ("d_year", "c_nation")),
    "Q4.2": _q4(*_AMERICA, _MFGR_1_2, Predicate.true().isin("d_year", [1997, 1998]),
                ("d_year", "s_nation", "p_category")),
    "Q4.3": _q4(Predicate.true(), Predicate.where("s_nation", "==", "UNITED STATES"),
                Predicate.where("p_category", "==", "MFGR#14"), Predicate.true().isin("d_year", [1997, 1998]),
                ("d_year", "s_city", "p_brand1")),
}

SSB_QUERY_NAMES = list(SSB_QUERIES)


def ssb_dimension_side(name: str, tables: dict[str, Table]) -> DimensionSide:
    """Query ``name``'s dimension side over ``tables`` (the four
    dimensions; lineorder is not read)."""
    if name not in SSB_QUERIES:
        raise KeyError(f"unknown SSB query {name!r}; expected one of {SSB_QUERY_NAMES}")
    return DimensionSide(tables, SSB_QUERIES[name])


def run_ssb_query(name: str, tables: dict[str, Table]) -> Table:
    return ssb_dimension_side(name, tables).probe(tables["lineorder"])
