"""Cyclic joins (§8.2): triangle decomposition, size bound, uniform sampling."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.cyclic import decompose_triangle, sample_cyclic
from repro.core.join_spec import Relation
from deadline import deadline
from statutil import assert_uniform


@pytest.fixture(scope="module")
def triangle():
    """R1(a,b) ⋈ R2(b,c) ⋈ R3(c,a): a genuine cycle."""
    g = np.random.default_rng(9)
    r1 = pd.DataFrame({"a": g.integers(1, 7, 25), "b": g.integers(1, 7, 25)}).drop_duplicates()
    r2 = pd.DataFrame({"b": g.integers(1, 7, 25), "c": g.integers(1, 7, 25)}).drop_duplicates()
    r3 = pd.DataFrame({"c": g.integers(1, 7, 25), "a": g.integers(1, 7, 25)}).drop_duplicates()
    cj = decompose_triangle(
        "tri",
        Relation("r1", r1),
        Relation("r2", r2),
        ("b", "b"),
        Relation("r3", r3),
    )
    truth = duckdb.sql(
        "select distinct r1.a, r1.b, r2.c from r1 "
        "join r2 on r1.b = r2.b join r3 on r2.c = r3.c and r1.a = r3.a"
    ).df()
    return cj, truth


def test_link_cols(triangle):
    cj, _ = triangle
    assert sorted(cj.link_cols) == ["a", "c"]


def test_full_df_matches_duckdb(triangle):
    cj, truth = triangle
    got = cj.full_pdf().sort_values(["a", "b", "c"]).reset_index(drop=True)
    want = truth.sort_values(["a", "b", "c"]).reset_index(drop=True)[got.columns.tolist()]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_size_bound_sound(triangle):
    cj, truth = triangle
    assert cj.size_bound() >= len(truth)


def test_residual_max_degree(triangle):
    cj, _ = triangle
    m = cj.residual_max_degree()
    pdf = cj.residual.pdf
    assert m == pdf.groupby(["c", "a"]).size().max()


def test_sample_cyclic_uniform(triangle):
    cj, truth = triangle
    s = sample_cyclic(cj, 2500, seed=1)
    assert len(s) == 2500
    assert_uniform(s, truth, ["a", "b", "c"])


def test_samples_valid(triangle):
    cj, truth = triangle
    s = sample_cyclic(cj, 100, seed=2)
    merged = s.merge(truth.drop_duplicates(), how="left", indicator=True)
    assert (merged["_merge"] == "both").all()


def test_empty_cyclic_join_raises():
    """A cyclic join whose residual matches no skeleton tuple is empty,
    though the skeleton and the residual are not: the sampler says so
    instead of drawing forever."""
    r1 = pd.DataFrame({"a": [1, 2], "b": [1, 2]})
    r2 = pd.DataFrame({"b": [1, 2], "c": [1, 2]})
    r3 = pd.DataFrame({"c": [1, 2], "a": [2, 1]})
    cj = decompose_triangle(
        "notri",
        Relation("r1", r1),
        Relation("r2", r2),
        ("b", "b"),
        Relation("r3", r3),
    )
    assert cj.size_bound() == 2 and not len(cj.full_pdf())
    with deadline(10), pytest.raises(ValueError, match="notri"):
        sample_cyclic(cj, 10, seed=0)
