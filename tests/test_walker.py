"""Random-walk operator: distributions, HT estimation, dead ends."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.join_spec import Relation, chain
from repro.core.randomwalk_union import RWState
from repro.core.walker import DPROD, P, WalkRequest, _walk_plan, run_walks
from duckjoin import count
from statutil import assert_uniform


@pytest.fixture(scope="module")
def abc():
    """3-relation chain with skewed degrees and a dead-end tuple."""
    a = Relation("a", pd.DataFrame({"x": [1, 2, 3], "pa": [10, 20, 30]}))
    b = Relation("b", pd.DataFrame({"bx": [1, 1, 1, 2, 9], "y": [4, 5, 5, 6, 7], "pb": [0, 1, 2, 3, 4]}))
    c = Relation(
        "c",
        pd.DataFrame({"cy": [4, 5, 5, 5, 6], "pc": [0, 1, 2, 3, 4]}),
    )
    return chain("abc", [a, b, c], [("x", "bx"), ("y", "cy")])


@pytest.fixture(scope="module")
def abc_full(abc):
    return abc.full_pdf()


def test_exact_size(abc, abc_full):
    assert count(abc) == len(abc_full)


def test_ew_walks_uniform(abc, abc_full):
    res = run_walks([WalkRequest(abc, 4000, "ew")], seed=7).results[0]
    assert res.n_failed == 0
    assert_uniform(res.pdf, abc_full, abc.value_cols)


def test_ew_p_is_inverse_size(abc):
    res = run_walks([WalkRequest(abc, 50, "ew")], seed=1).results[0]
    assert np.allclose(res.pdf[P], 1.0 / count(abc))


def test_uniform_walk_p_matches_frequency(abc):
    """Empirical frequency of each completed walk ≈ its recorded p(t)."""
    res = run_walks([WalkRequest(abc, 20000, "uniform")], seed=3).results[0]
    pdf = res.pdf
    grp = pdf.groupby(abc.value_cols, as_index=False).agg(
        n=("__p", "size"), p=("__p", "first")
    )
    emp = grp["n"] / 20000
    assert np.allclose(emp, grp["p"], rtol=0.35)


@pytest.mark.parametrize("mode", ["uniform", "ew"])
def test_walks_skip_null_keys(mode):
    """A null join key matches nothing, a null on the other side included:
    every walk returns the one tuple of l(k: 1, null, null) ⋈ r(rk: 1, 2,
    null), as DuckDB computes the join."""
    lk = pd.DataFrame({"k": pd.array([1, None, None], dtype="Int64"), "pl": [0, 1, 2]})
    rk = pd.DataFrame({"rk": pd.array([1, 2, None], dtype="Int64"), "pr": [0, 1, 2]})
    rels = [Relation("l", lk), Relation("r", rk)]
    join = chain("lr", rels, [("k", "rk")])
    truth = duckdb.sql("select * from lk join rk on lk.k = rk.rk").df()[join.value_cols]
    res = run_walks([WalkRequest(join, 2000, mode)], seed=1).results[0]
    got = res.pdf[join.value_cols]
    assert len(got) == 2000 and got.notna().all().all()
    merged = got.merge(truth, how="left", indicator=True)
    assert (merged["_merge"] == "both").all()


def test_uniform_walks_never_dead_end(abc):
    """The plan's full (Yannakakis) reduction removes the non-joinable
    tuples (x=3; bx=9/y=7), so walks cannot dead-end — the paper's
    'zero the weights of non-joinable tuples' fix."""
    plan = _walk_plan(abc)
    assert len(plan.root) < len(abc.root.relation.pdf)  # x=3 removed
    res = run_walks([WalkRequest(abc, 3000, "uniform")], seed=5).results[0]
    assert res.n_failed == 0
    assert len(res.pdf) == 3000


def test_ht_estimate_converges(abc):
    res = run_walks([WalkRequest(abc, 20000, "uniform")], seed=11).results[0]
    state = RWState(pools={"abc": res.pdf}, n_failed={"abc": res.n_failed})
    assert state.ht_size("abc") == pytest.approx(count(abc), rel=0.1)


def test_dprod_tracked(abc):
    res = run_walks([WalkRequest(abc, 200, "uniform")], seed=2).results[0]
    # p = (1 / |reduced root|) / dprod
    n_root = len(_walk_plan(abc).root)
    assert np.allclose(res.pdf[P] * res.pdf[DPROD], 1.0 / n_root)


def test_walks_deterministic_in_seed(abc):
    r1 = run_walks([WalkRequest(abc, 100, "ew")], seed=42).results[0]
    r2 = run_walks([WalkRequest(abc, 100, "ew")], seed=42).results[0]
    pd.testing.assert_frame_equal(
        r1.pdf.sort_values(abc.value_cols).reset_index(drop=True),
        r2.pdf.sort_values(abc.value_cols).reset_index(drop=True),
    )


def test_ht_running_stats():
    pool = pd.DataFrame({P: np.full(4, 1 / 10.0)})  # 1/p = 10 each
    state = RWState(pools={"j": pool, "none": pd.DataFrame()}, n_failed={"j": 4, "none": 0})
    assert state.ht_size("j") == pytest.approx(5.0)  # 4 failures
    assert state.ht_var("j") > 0
    assert (state.ht_size("none"), state.ht_var("none")) == (0.0, 0.0)


def test_empty_root():
    a = Relation("a", pd.DataFrame({"x": [1]}).query("x > 5"))
    b = Relation("b", pd.DataFrame({"bx": [1], "z": [2]}))
    j = chain("empty", [a, b], [("x", "bx")])
    res = run_walks([WalkRequest(j, 10, "uniform")], seed=0).results[0]
    assert res.n_failed == 10 and len(res.pdf) == 0
