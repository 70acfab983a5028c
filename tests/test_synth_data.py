"""Generators: schemas, determinism, cardinalities, key validity."""
import pytest

from repro import synth_data as sd


@pytest.mark.parametrize(
    "gen,key,n_expected",
    [
        ("lineitem", "l_orderkey", 6000),
        ("orders", "o_orderkey", 1500),
        ("customer", "c_custkey", 150),
        ("part", "p_partkey", 200),
        ("supplier", "s_suppkey", 10),
    ],
)
def test_row_counts_sf(gen, key, n_expected):
    df = getattr(sd, gen)(sf=0.001)
    assert len(df) == n_expected
    assert key in df.columns


def test_nation_region_fixed():
    assert len(sd.nation()) == 25
    assert len(sd.region()) == 5


def test_nation_regionkey_range():
    assert set(sd.nation()["n_regionkey"]) <= set(range(5))


def test_lineitem_has_suppkey_in_range():
    li = sd.lineitem(sf=0.001)
    n_supp = sd.n_rows("supplier", 0.001)
    assert li["l_suppkey"].between(1, n_supp).all()


def test_lineitem_orderkey_in_range():
    li = sd.lineitem(sf=0.001)
    assert li["l_orderkey"].between(1, sd.n_rows("orders", 0.001)).all()


def test_orders_custkey_in_range():
    o = sd.orders(sf=0.001)
    assert o["o_custkey"].between(1, sd.n_rows("customer", 0.001)).all()


def test_partsupp_unique_pairs():
    ps = sd.partsupp(sf=0.002)
    assert not ps.duplicated(["ps_partkey", "ps_suppkey"]).any()
    assert ps["ps_partkey"].between(1, sd.n_rows("part", 0.002)).all()
    assert ps["ps_suppkey"].between(1, sd.n_rows("supplier", 0.002)).all()


def test_determinism():
    a = sd.lineitem(sf=0.001, seed=3)
    b = sd.lineitem(sf=0.001, seed=3)
    assert a.equals(b)
    c = sd.lineitem(sf=0.001, seed=4)
    assert not a.equals(c)


def test_supplier_nationkey_range():
    s = sd.supplier(sf=0.002)
    assert s["s_nationkey"].between(0, 24).all()


def test_n_rows_helper():
    assert sd.n_rows("lineitem", 0.01) == 60_000
    assert sd.n_rows("nation", 0.5) == 25
    assert sd.n_rows("region", 2.0) == 5
    assert sd.n_rows("partsupp", 0.01) == 8_000
