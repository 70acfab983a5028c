"""Degree statistics vs pandas and DuckDB ground truth."""
import duckdb
import pandas as pd
import pytest

from repro.core import stats
from repro.core.join_spec import Relation
from repro.workloads import uq3


def rel(pdf: pd.DataFrame, name: str = "r") -> Relation:
    return Relation(name, pdf)


@pytest.fixture(scope="module")
def r():
    return rel(pd.DataFrame({"k": [1, 1, 1, 2, 2, 3], "v": list("abcdef")}))


def test_degree_histogram(r):
    assert r.degrees("k").to_dict() == {1: 3, 2: 2, 3: 1}


def test_max_degree(r):
    assert stats.max_degree(r, "k") == 3


def test_avg_degree(r):
    assert stats.avg_degree(r, "k") == pytest.approx(2.0)


def test_max_degree_empty():
    empty = Relation("e", pd.DataFrame({"k": [1]}).query("k > 5"))
    assert stats.max_degree(empty, "k") == 0


def test_pair_degree_product_is_exact_join_size():
    a = rel(pd.DataFrame({"k": [1, 1, 2, 3]}), "a")
    b = rel(pd.DataFrame({"j": [1, 2, 2, 2, 4]}), "b")
    rows = stats.pair_degree_product(a, "k", b, "j").to_dict()
    # value 1: 2*1, value 2: 1*3; 3 and 4 unmatched
    assert rows == {1: 2, 2: 3}
    with duckdb.connect() as con:
        con.register("a", a.pdf)
        con.register("b", b.pdf)
        n = con.execute("select count(*) from a join b on a.k = b.j").fetchone()[0]
    assert sum(rows.values()) == n


def test_self_degree(r):
    assert stats.self_degree(r, "k").to_dict() == {1: 3, 2: 2, 3: 1}


def test_null_key_counted_in_degrees_dropped_from_joins():
    """A null is one group for max and mean degree (SQL GROUP BY) and joins
    nothing, so pair products drop it."""
    a = rel(pd.DataFrame({"k": [None, None, None, 1.0, 2.0]}), "a")
    b = rel(pd.DataFrame({"j": [None, 1.0, 1.0]}), "b")
    assert stats.max_degree(a, "k") == 3
    assert stats.avg_degree(a, "k") == pytest.approx(5 / 3)
    assert stats.max_degree(b, "j") == 2
    assert stats.pair_degree_product(a, "k", b, "j").to_dict() == {1.0: 2}


def test_degrees_match_duckdb_group_by():
    """Every column's histogram on the UQ3 relations equals DuckDB's
    ``GROUP BY`` counts."""
    w = uq3(None, sf=0.002, overlap=0.2, seed=3)
    rels = {r.name: r for j in w.joins for r in j.relations()}
    con = duckdb.connect()
    for r in rels.values():
        con.register("t", r.pdf)
        for col in r.cols:
            want = dict(con.execute(f'select "{col}", count(*) from t group by 1').fetchall())
            assert r.degrees(col).to_dict() == want, (r.name, col)
        con.unregister("t")
