"""FullJoinUnion ground truth vs pandas brute force and DuckDB."""
import pandas as pd
import pytest

from duckjoin import DuckJoins
from repro.core.exact import full_join_union, union_tuples
from repro.core.join_spec import Edge, Join, Node, Relation, chain
from repro.workloads import uq3


@pytest.fixture(scope="module")
def joins():
    a = pd.DataFrame({"x": [1, 1, 2, 3, 4], "pa": [0, 1, 2, 3, 4]})
    b = pd.DataFrame({"bx": [1, 2, 3, 5], "pb": [9, 8, 7, 6]})
    out = []
    for i, sl in enumerate([(0, 4), (1, 5), (2, 5)]):
        ra = Relation("a", a.iloc[sl[0] : sl[1]].reset_index(drop=True))
        rb = Relation("b", b)
        out.append(chain(f"e{i}", [ra, rb], [("x", "bx")]))
    full = [
        a.iloc[sl[0] : sl[1]].merge(b, left_on="x", right_on="bx").drop_duplicates()
        for sl in [(0, 4), (1, 5), (2, 5)]
    ]
    return out, full


def brute_atoms(full: list[pd.DataFrame], names: list[str]) -> dict:
    keysets = [
        set(map(tuple, f[["x", "pa", "bx", "pb"]].itertuples(index=False)))
        for f in full
    ]
    universe = set().union(*keysets)
    atoms = {}
    for u in universe:
        mem = frozenset(n for n, ks in zip(names, keysets) if u in ks)
        atoms[mem] = atoms.get(mem, 0) + 1
    return atoms


def test_atoms_match_bruteforce(spark, joins):
    js, full = joins
    ex = full_join_union(spark, js)
    expected = brute_atoms(full, [j.name for j in js])
    assert ex.atoms == expected


def test_sizes_and_union(spark, joins):
    js, full = joins
    ex = full_join_union(spark, js)
    for j, f in zip(js, full):
        assert ex.sizes[j.name] == len(f)
    u = set()
    for f in full:
        u |= set(map(tuple, f[["x", "pa", "bx", "pb"]].itertuples(index=False)))
    assert ex.union == len(u)
    assert len(union_tuples(js)) == len(u)


def test_overlap_queries(spark, joins):
    js, full = joins
    ex = full_join_union(spark, js)
    k0 = set(map(tuple, full[0][["x", "pa", "bx", "pb"]].itertuples(index=False)))
    k1 = set(map(tuple, full[1][["x", "pa", "bx", "pb"]].itertuples(index=False)))
    assert ex.overlap(frozenset([js[0].name, js[1].name])) == len(k0 & k1)


def test_ratios_sum(spark, joins):
    js, _ = joins
    ex = full_join_union(spark, js)
    r = ex.ratios()
    assert all(0 < v <= 1 for v in r.values())


def test_stats_consistent_with_koverlap(spark, joins):
    js, _ = joins
    ex = full_join_union(spark, js)
    st = ex.stats
    assert st["union"] == ex.union
    assert st["sizes"] == ex.sizes
    # Eq. 1 from the A_j^k derived by Theorem 3 must reproduce |U|
    from repro.core.koverlap import k_overlaps, union_size

    a = k_overlaps(ex.names, ex.overlap_fn)
    assert union_size(ex.names, a) == pytest.approx(ex.union)


def duckdb_atoms(joins) -> dict:
    """The union's atoms computed by DuckDB, with SQL read off each join
    tree, over the relations' collected frames."""
    cols = joins[0].value_cols
    collist = ", ".join(f'"{c}"' for c in cols)
    with DuckJoins() as db:
        parts = []
        for i, j in enumerate(joins):
            owner, from_where = db.from_where(j)
            select = ", ".join(f'{owner[c]} AS "{c}"' for c in cols)
            parts.append(f"SELECT DISTINCT {select}, {1 << i} AS bit {from_where}")
        rows = db.con.execute(
            f"SELECT mask, count(*) FROM (SELECT sum(bit) AS mask FROM "
            f"({' UNION ALL '.join(parts)}) GROUP BY {collist}) GROUP BY mask"
        ).fetchall()
    names = [j.name for j in joins]
    return {frozenset(n for i, n in enumerate(names) if int(m) >> i & 1): c for m, c in rows}


def _rel(name, **cols):
    return Relation(name, pd.DataFrame(cols))


def _ints(*vals):
    return pd.array(vals, dtype="Int64")


@pytest.mark.parametrize("using", [False, True])
def test_null_join_keys_match_duckdb(spark, using):
    """A null join key matches nothing, on a different-name edge and on a
    USING edge alike; null payloads group together across joins."""
    key = "x" if using else "bx"
    b = _rel("b", **{key: _ints(1, None, 2, 3), "pb": ["p", "q", None, None]})
    joins = []
    for i, (lo, hi) in enumerate([(0, 4), (1, 6)]):
        xs, pas = _ints(1, None, 2, None, 3, 1)[lo:hi], _ints(0, 1, None, 3, None, 5)[lo:hi]
        a = _rel("a", x=xs, pa=pas)
        joins.append(chain(f"n{i}", [a, b], [("x", key)]))
    ex = full_join_union(spark, joins)
    assert ex.atoms == duckdb_atoms(joins)
    # (2, null, 2, null) is in both joins: one tuple, whose nulls group
    n0, n1 = (j.name for j in joins)
    assert ex.atoms == {frozenset([n0]): 1, frozenset([n0, n1]): 1, frozenset([n1]): 2}
    assert len(union_tuples(joins)) == ex.union


@pytest.mark.parametrize("root", ["a", "b"])
def test_hidden_join_key_matches_duckdb(spark, root):
    """A hidden ``__rid`` key (a vertical-split rejoin) is carried through
    an earlier merge until its edge joins on it, whether it sits on the
    root or on a child, and never reaches the output tuple."""
    a = _rel("a", x=[1, 2, 3, 4], pa=[0, 1, 2, 3], __rid=[0, 1, 2, 3])
    b = _rel("b", bx=[1, 2, 3], pb=[7, 8, 9])
    joins = []
    for i, (lo, hi) in enumerate([(0, 3), (1, 4)]):
        a2 = _rel("a2", __rid=list(range(lo, hi)), qa=[10 + r for r in range(lo, hi)])
        split = Edge("__rid", "__rid", Node(a2), fake=True)
        if root == "a":
            tree = Node(a, [Edge("x", "bx", Node(b)), split])
        else:
            tree = Node(b, [Edge("bx", "x", Node(a, [split]))])
        joins.append(Join(f"h{i}", tree))
    assert not any(c.startswith("__") for c in joins[0].full_pdf().columns)
    ex = full_join_union(spark, joins)
    assert ex.atoms == duckdb_atoms(joins)
    h0, h1 = (j.name for j in joins)
    assert ex.atoms == {frozenset([h0]): 1, frozenset([h0, h1]): 2}


def test_uq3_atoms_match_duckdb(spark):
    """Split relations, the USING rejoin of the vertical split and the m:n
    nationkey edge: FullJoinUnion's atoms equal DuckDB's."""
    w = uq3(spark, sf=0.002, overlap=0.2, seed=3)
    ex = full_join_union(spark, w.joins)
    assert ex.atoms == duckdb_atoms(w.joins)
    assert len(ex.atoms) > 1
