"""Random-walk operator: distributions, HT estimation, dead ends."""
import numpy as np
import pandas as pd
import pytest

from repro.core.join_spec import Relation, chain
from repro.core.randomwalk_union import RWState
from repro.core.walker import DPROD, P, WalkRequest, _walk_plan, run_walks
from repro.core.weights import exact_size, weighted_join
from statutil import assert_uniform


@pytest.fixture(scope="module")
def abc(spark):
    """3-relation chain with skewed degrees and a dead-end tuple."""
    a = Relation("a", spark.createDataFrame(pd.DataFrame({"x": [1, 2, 3], "pa": [10, 20, 30]})))
    b = Relation(
        "b",
        spark.createDataFrame(
            pd.DataFrame({"bx": [1, 1, 1, 2, 9], "y": [4, 5, 5, 6, 7], "pb": [0, 1, 2, 3, 4]})
        ),
    )
    c = Relation(
        "c",
        spark.createDataFrame(pd.DataFrame({"cy": [4, 5, 5, 5, 6], "pc": [0, 1, 2, 3, 4]})),
    )
    return chain("abc", [a, b, c], [("x", "bx"), ("y", "cy")])


@pytest.fixture(scope="module")
def abc_full(spark, abc):
    return abc.full_pdf()


def test_exact_size(abc, abc_full):
    assert exact_size(abc) == len(abc_full)


def test_ew_walks_uniform(spark, abc, abc_full):
    wj = weighted_join(abc)
    res = run_walks([WalkRequest(wj, 4000, "ew")], seed=7).results[0]
    assert res.n_failed == 0
    assert_uniform(res.pdf, abc_full, abc.value_cols)


def test_ew_p_is_inverse_size(spark, abc):
    wj = weighted_join(abc)
    res = run_walks([WalkRequest(wj, 50, "ew")], seed=1).results[0]
    assert np.allclose(res.pdf[P], 1.0 / exact_size(abc))


def test_uniform_walk_p_matches_frequency(spark, abc):
    """Empirical frequency of each completed walk ≈ its recorded p(t)."""
    res = run_walks([WalkRequest(abc, 20000, "uniform")], seed=3).results[0]
    pdf = res.pdf
    grp = pdf.groupby(abc.value_cols, as_index=False).agg(
        n=("__p", "size"), p=("__p", "first")
    )
    emp = grp["n"] / 20000
    assert np.allclose(emp, grp["p"], rtol=0.35)


def test_uniform_walks_never_dead_end(spark, abc):
    """The plan's full (Yannakakis) reduction removes the non-joinable
    tuples (x=3; bx=9/y=7), so walks cannot dead-end — the paper's
    'zero the weights of non-joinable tuples' fix."""
    plan = _walk_plan(abc)
    assert len(plan.root) < abc.root.relation.df.count()  # x=3 removed
    res = run_walks([WalkRequest(abc, 3000, "uniform")], seed=5).results[0]
    assert res.n_failed == 0
    assert len(res.pdf) == 3000


def test_ht_estimate_converges(spark, abc):
    res = run_walks([WalkRequest(abc, 20000, "uniform")], seed=11).results[0]
    state = RWState(pools={"abc": res.pdf}, n_failed={"abc": res.n_failed})
    assert state.ht_size("abc") == pytest.approx(exact_size(abc), rel=0.1)


def test_dprod_tracked(spark, abc):
    res = run_walks([WalkRequest(abc, 200, "uniform")], seed=2).results[0]
    # p = (1 / |reduced root|) / dprod
    n_root = len(_walk_plan(abc).root)
    assert np.allclose(res.pdf[P] * res.pdf[DPROD], 1.0 / n_root)


def test_walks_deterministic_in_seed(spark, abc):
    wj = weighted_join(abc)
    r1 = run_walks([WalkRequest(wj, 100, "ew")], seed=42).results[0]
    r2 = run_walks([WalkRequest(wj, 100, "ew")], seed=42).results[0]
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


def test_empty_root(spark):
    a = Relation("a", spark.createDataFrame(pd.DataFrame({"x": [1]})).filter("x > 5"))
    b = Relation("b", spark.createDataFrame(pd.DataFrame({"bx": [1], "z": [2]})))
    j = chain("empty", [a, b], [("x", "bx")])
    res = run_walks([WalkRequest(j, 10, "uniform")], seed=0).results[0]
    assert res.n_failed == 10 and len(res.pdf) == 0
