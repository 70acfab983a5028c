"""Membership oracle: the exact index vs the semijoin reference path."""
import pandas as pd
import pytest

from repro.core.membership import MembershipIndex, member_ids, membership_matrix, min_join_index
from repro.core.join_spec import Relation, chain


@pytest.fixture(scope="module")
def two_joins(spark):
    a1 = Relation("a", spark.createDataFrame(pd.DataFrame({"x": [1, 2, 3], "p": [1.5, 2.5, 3.5]})))
    b1 = Relation("b", spark.createDataFrame(pd.DataFrame({"bx": [1, 2, 4], "q": list("mno")})))
    j1 = chain("j1", [a1, b1], [("x", "bx")])
    a2 = Relation("a", spark.createDataFrame(pd.DataFrame({"x": [2, 3, 5], "p": [2.5, 3.5, 5.5]})))
    b2 = Relation("b", spark.createDataFrame(pd.DataFrame({"bx": [2, 3, 5], "q": list("nop")})))
    j2 = chain("j2", [a2, b2], [("x", "bx")])
    return j1, j2


@pytest.fixture(scope="module")
def candidates(spark, two_joins):
    j1, j2 = two_joins
    u = pd.concat([j1.full_pdf(), j2.full_pdf()]).drop_duplicates()
    # plus a fabricated non-member and a condition-violating tuple
    extra = pd.DataFrame(
        {"x": [9, 2], "p": [9.5, 2.5], "bx": [9, 3], "q": ["z", "n"]}
    )
    return pd.concat([u, extra], ignore_index=True)


def test_reference_vs_index(spark, two_joins, candidates):
    j1, j2 = two_joins
    idx = MembershipIndex([j1, j2])
    m_idx = idx.matrix(candidates)
    m_ref = membership_matrix(spark, candidates, [j1, j2])
    assert (m_idx == m_ref).all()


def test_condition_violation_rejected(spark, two_joins, candidates):
    j1, j2 = two_joins
    # last row has x=2 but bx=3: parts exist, the x=bx invariant fails
    m = membership_matrix(spark, candidates, [j1, j2])
    assert not m[len(candidates) - 1].any()
    assert not m[len(candidates) - 2].any()  # fabricated tuple in no join


def test_min_join_index_first_wins(spark, two_joins, candidates):
    j1, j2 = two_joins
    idx = MembershipIndex([j1, j2])
    f_idx = idx.min_index(candidates)
    f_ref = min_join_index(spark, candidates, [j1, j2])
    assert (f_idx == f_ref).all()
    # tuple (2, 2.5, 2, 'n') is in both joins → assigned to index 0
    both = candidates[(candidates["x"] == 2) & (candidates["bx"] == 2)]
    assert (f_idx[both.index] == 0).all()
    assert f_idx[len(candidates) - 1] == -1


def test_member_ids_sorted(spark, two_joins, candidates):
    j1, _ = two_joins
    ids = member_ids(spark, candidates, j1)
    assert list(ids) == sorted(ids)


def test_float_and_string_columns_roundtrip(spark, two_joins):
    # float (p) and string (q) take part in the lookup; exact roundtrip match
    j1, j2 = two_joins
    idx = MembershipIndex([j1, j2])
    own = j1.full_pdf()
    m = idx.matrix(own)
    assert m[:, 0].all()
