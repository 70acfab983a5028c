"""Membership index: exact against DuckDB's ``EXISTS`` membership."""
import pandas as pd
import pytest

import duckjoin
from repro.core.join_spec import Edge, Join, Node, Relation, chain
from repro.core.membership import MembershipIndex, first_join


@pytest.fixture(scope="module")
def two_joins():
    a1 = Relation("a", pd.DataFrame({"x": [1, 2, 3], "p": [1.5, 2.5, 3.5]}))
    b1 = Relation("b", pd.DataFrame({"bx": [1, 2, 4], "q": list("mno")}))
    j1 = chain("j1", [a1, b1], [("x", "bx")])
    a2 = Relation("a", pd.DataFrame({"x": [2, 3, 5], "p": [2.5, 3.5, 5.5]}))
    b2 = Relation("b", pd.DataFrame({"bx": [2, 3, 5], "q": list("nop")}))
    j2 = chain("j2", [a2, b2], [("x", "bx")])
    return j1, j2


@pytest.fixture(scope="module")
def candidates(two_joins):
    j1, j2 = two_joins
    u = pd.concat([j1.full_pdf(), j2.full_pdf()]).drop_duplicates()
    # plus a fabricated non-member and a condition-violating tuple
    extra = pd.DataFrame(
        {"x": [9, 2], "p": [9.5, 2.5], "bx": [9, 3], "q": ["z", "n"]}
    )
    return pd.concat([u, extra], ignore_index=True)


def test_reference_vs_index(two_joins, candidates):
    """The index agrees with the reference, DuckDB's membership matrix."""
    j1, j2 = two_joins
    m_idx = MembershipIndex([j1, j2]).matrix(candidates)
    assert (m_idx == duckjoin.members(candidates, [j1, j2])).all()


def test_condition_violation_rejected(two_joins, candidates):
    j1, j2 = two_joins
    # last row has x=2 but bx=3: parts exist, the x=bx invariant fails
    for m in (MembershipIndex([j1, j2]).matrix(candidates), duckjoin.members(candidates, [j1, j2])):
        assert not m[len(candidates) - 1].any()
        assert not m[len(candidates) - 2].any()  # fabricated tuple in no join


def test_min_join_index_first_wins(two_joins, candidates):
    j1, j2 = two_joins
    f_idx = MembershipIndex([j1, j2]).min_index(candidates)
    assert (f_idx == first_join(duckjoin.members(candidates, [j1, j2]))).all()
    # tuple (2, 2.5, 2, 'n') is in both joins → assigned to index 0
    both = candidates[(candidates["x"] == 2) & (candidates["bx"] == 2)]
    assert (f_idx[both.index] == 0).all()
    assert f_idx[len(candidates) - 1] == -1


def test_float_and_string_columns_roundtrip(two_joins):
    # float (p) and string (q) take part in the lookup; exact roundtrip match
    j1, j2 = two_joins
    idx = MembershipIndex([j1, j2])
    own = j1.full_pdf()
    m = idx.matrix(own)
    assert m[:, 0].all()


def _rel(name, **cols):
    return Relation(name, pd.DataFrame(cols))


def test_hidden_key_split_is_one_unit():
    """Halves of different rows of a split on a hidden ``__rid`` do not
    pass together: the join holds (1, 10) and (2, 20), not (1, 20)."""
    left = _rel("l", __rid=[0, 1], c1=[1, 2])
    right = _rel("r", __rid=[0, 1], c2=[10, 20])
    join = Join("split", Node(left, [Edge("__rid", "__rid", Node(right), fake=True)]))
    cands = pd.DataFrame({"c1": [1, 1, 2, 2], "c2": [10, 20, 10, 20]})
    m = MembershipIndex([join]).matrix(cands)
    assert (m == duckjoin.members(cands, [join])).all()
    assert m[:, 0].tolist() == [True, False, False, True]


def test_null_join_key_is_not_a_member():
    """A row with a null join key joins nothing, on a USING edge too:
    l(k, pl) ⋈ r(k, pr) over {(1, 0), (null, 1)} and {(1, 5), (null, 6)}
    holds only (1, 0, 5)."""
    k = pd.array([1, None], dtype="Int64")
    join = chain("nk", [_rel("l", k=k, pl=[0, 1]), _rel("r", k=k, pr=[5, 6])], [("k", "k")])
    cands = pd.DataFrame({"k": pd.array([1, None, 1], dtype="Int64"), "pl": [0, 1, 1], "pr": [5, 6, 6]})
    m = MembershipIndex([join]).matrix(cands)
    assert (m == duckjoin.members(cands, [join])).all()
    assert m[:, 0].tolist() == [True, False, False]
