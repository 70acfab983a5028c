"""Workloads UQ1/UQ2/UQ3: schema alignment, analytic overlap structure."""
from itertools import combinations

import duckdb
import pytest

from duckjoin import count
from repro.core.exact import full_join_union
from repro.workloads import uq1, uq2, uq3
from repro.workloads.base import (
    Tier,
    default_tiers,
    expected_overlap_fraction,
    tiered_key_variant,
)
from repro.workloads.uq3 import order_windows


@pytest.fixture(scope="module")
def w1():
    return uq1(None, sf=0.002, overlap=0.3, n_joins=3)


@pytest.fixture(scope="module")
def ex1(w1):
    return full_join_union(None, w1.joins)


def test_uq1_schema_aligned(w1):
    cols = [set(j.value_cols) for j in w1.joins]
    assert all(c == cols[0] for c in cols)


def test_uq1_sizes_equal_lineitem(w1, ex1):
    for j in w1.joins:
        assert ex1.sizes[j.name] == w1.meta["n_lineitem"]


def test_uq1_tier_overlaps_exact(w1, ex1):
    n = w1.meta["n_lineitem"]
    tiers = w1.meta["tiers"]
    names = [j.name for j in w1.joins]
    for k in range(2, len(names) + 1):
        for d in combinations(names, k):
            inst = frozenset(int(x.split("_")[1]) for x in d)
            expect = expected_overlap_fraction(tiers, inst) * n
            assert ex1.overlap(frozenset(d)) == pytest.approx(expect, abs=1.0)


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_uq1_union_scales_with_overlap(p):
    w = uq1(None, sf=0.001, overlap=p, n_joins=2)
    ex = full_join_union(None, w.joins)
    n = w.meta["n_lineitem"]
    # pairwise tiers: P (all) + P/3 ({0,1}) shared ⇒ |U| = 2n − (P + P/3)n
    expect = 2 * n - (p + p / 3) * n
    assert ex.union == pytest.approx(expect, abs=1.0)


def test_tiered_variant_requires_large_domain():
    import pandas as pd

    pdf = pd.DataFrame({"k": [1, 1, 2]})
    with pytest.raises(ValueError):
        tiered_key_variant(pdf, "k", 2, [Tier(0.5, frozenset({0}))], 5)


def test_tiered_variant_fraction_check():
    import pandas as pd

    pdf = pd.DataFrame({"k": [1, 2, 3]})
    with pytest.raises(ValueError):
        tiered_key_variant(pdf, "k", 100, [Tier(0.9, frozenset()), Tier(0.5, frozenset())], 0)


def test_default_tiers_fractions():
    tiers = default_tiers(0.3, 5)
    assert tiers[0].frac == 0.3 and tiers[0].members == frozenset(range(5))
    assert sum(t.frac for t in tiers) <= 1.0


def test_uq2_overlap_via_predicates():
    w = uq2(None, sf=0.004, overlap=0.6)
    ex = full_join_union(None, w.joins)
    names = [j.name for j in w.joins]
    windows = w.meta["windows"]
    # consecutive windows overlap; first and last may not
    assert ex.overlap(frozenset([names[0], names[1]])) > 0
    lo0, hi0 = windows[0]
    lo2, hi2 = windows[2]
    if hi0 < lo2:
        assert ex.overlap(frozenset([names[0], names[2]])) == 0


def test_uq2_sizes_are_filtered_partsupp_counts():
    w = uq2(None, sf=0.004, overlap=0.6)
    # every partsupp row with part in window yields exactly one tuple
    with duckdb.connect() as con:
        for j in w.joins:
            con.register("part", j.relations()[-1].pdf)
            con.register("ps", j.relations()[-2].pdf)
            sql = "select count(*) from ps join part on ps_partkey = p_partkey"
            assert count(j) == con.execute(sql).fetchone()[0]


def test_uq3_schema_aligned():
    w = uq3(None, sf=0.002, overlap=0.2)
    cols = [set(j.value_cols) for j in w.joins]
    assert all(c == cols[0] for c in cols)
    assert not w.joins[0].is_chain()
    assert w.joins[1].is_chain() and w.joins[2].is_chain()


def test_uq3_window_overlap_structure():
    w = uq3(None, sf=0.004, overlap=0.4)
    ex = full_join_union(None, w.joins)
    names = [j.name for j in w.joins]
    (l0, h0), (l1, h1), (l2, h2) = w.meta["windows"]
    assert ex.overlap(frozenset([names[0], names[1]])) > 0
    if h0 <= l2:
        assert ex.overlap(frozenset(names)) == 0


def test_order_windows_tile():
    ws = order_windows(1000, 0.5)
    assert ws[0][0] == 0
    assert ws[-1][1] <= 1000
    assert all(ws[i][1] > ws[i + 1][0] for i in range(2))  # consecutive overlap


def test_uq3_fake_edge_marked():
    w = uq3(None, sf=0.002, overlap=0.2)
    fakes = [e.fake for _, e in w.joins[2].edges()]
    assert fakes == [False, True, False]


def test_uq1_eo_acceptance_reasonable(w1):
    """The Olken bound on UQ1's chain stays within ~10× of the truth, so
    EO sampling is usable (the paper's EO-vs-EW gap, not a cliff)."""
    ctx = w1.uctx.ctx(w1.joins[0].name)
    assert ctx.size_olken < 10 * ctx.size_exact
