"""Reference generator for ``test_ssb_generator_equivalence``.

:func:`generate_ssb_tables` as it was before its draws were written
out: every number comes from :meth:`Rng.randint` or :meth:`Rng.choice`,
that is from the standard library's ``random.Random`` methods, and the
derived lineorder columns are computed row by row in Python.  It stays
here so "same tables, same generator state afterwards" is checked live
against :func:`repro.query.ssb.generate_ssb_tables` for any scale
factor and seed.  ``Rng`` is looked up in this module when the function
runs, so a test can substitute a subclass that keeps its instances.
"""

from repro.query import Table
from repro.query.ssb import (
    _CITIES_PER_NATION,
    CUSTOMER_ROWS_SF1,
    LINEORDER_ROWS_SF1,
    PART_ROWS_SF1,
    SUPPLIER_ROWS_SF1,
    _city,
    _date_dimension,
    _nation_region,
    _nations,
)
from repro.sim.distributions import Rng


def generate_ssb_tables(scale_factor=0.001, seed=0):
    """The five tables the standard library's methods draw."""
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

    def entity(prefix, count, table_name, key_name):
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
