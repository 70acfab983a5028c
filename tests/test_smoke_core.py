"""End-to-end smoke of the core pipeline on a tiny chain join."""
import pandas as pd
import pytest

import duckjoin
from repro.core.exact import full_join_union
from repro.core.join_sampler import JoinContext, sample_join
from repro.core.join_spec import Relation, chain
from repro.core.membership import MembershipIndex, first_join
from repro.core.randomwalk_union import RWState
from repro.core.walker import WalkRequest, run_walks


@pytest.fixture(scope="module")
def tiny():
    r = Relation(
        "r",
        pd.DataFrame({"a": [1, 1, 2, 3], "x": [10, 11, 12, 13]}),
    )
    s = Relation("s", pd.DataFrame({"b": [1, 1, 2, 2, 4], "y": [20, 21, 22, 23, 24]}))
    return chain("j1", [r, s], [("a", "b")])


def test_exact_size_matches_duckdb(tiny):
    # r⋈s on a=b: a=1 matches b∈{1,1} → 2 rows each of the two a=1 rows; a=2 → 2
    assert duckjoin.count(tiny) == JoinContext(tiny).size_exact == 2 * 2 + 1 * 2


def test_olken_bound_sound(tiny):
    assert JoinContext(tiny).size_olken >= duckjoin.count(tiny)


def test_walker_ew_uniform(tiny):
    request = WalkRequest(tiny, 600, "ew", duckjoin.count(tiny))
    res = run_walks([request], seed=1).results[0]
    assert res.n_failed == 0
    counts = res.pdf.groupby(["a", "x", "y"]).size()
    assert len(counts) == 6  # all 6 join results reachable
    assert counts.min() > 50  # roughly uniform (expected 100 each)


def test_walker_uniform_ht(tiny):
    res = run_walks([WalkRequest(tiny, 800, "uniform")], seed=2).results[0]
    est = RWState(pools={"j1": res.pdf}, n_failed={"j1": res.n_failed}).ht_size("j1")
    assert est == pytest.approx(duckjoin.count(tiny), rel=0.3)


def test_sample_join_eo(tiny):
    ctx = JoinContext(tiny)
    s = sample_join({ctx: 50}, method="eo", seed=3)
    assert len(s) == 50


def test_full_join_union_and_membership(tiny):
    r2 = Relation(
        "r",
        pd.DataFrame({"a": [1, 2], "x": [10, 12]}),
    )
    s2 = Relation(
        "s",
        pd.DataFrame({"b": [1, 2], "y": [20, 22]}),
    )
    j2 = chain("j2", [r2, s2], [("a", "b")])
    ex = full_join_union(None, [tiny, j2])
    assert ex.sizes["j1"] == 6
    assert ex.sizes["j2"] == 2  # (1,10,20),(2,12,22)
    assert ex.overlap(frozenset(["j1", "j2"])) == 2
    assert ex.union == 6
    cands = tiny.full_pdf()
    f = first_join(duckjoin.members(cands, [tiny, j2]))
    assert set(f) == {0}  # j1 first in order, contains everything it produced
    assert (MembershipIndex([tiny, j2]).min_index(cands) == f).all()
