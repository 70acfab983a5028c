"""Standard-template selection (§8.1): scores, optimality, paper example."""
import tracemalloc
from itertools import permutations

import pandas as pd
import pytest

from repro.core.join_spec import Edge, Join, Node, Relation, chain
from repro.splitting.template import _score_matrix, best_template


@pytest.fixture(scope="module")
def paper_like_joins():
    """Three joins over attributes A..F with different tree shapes,
    mirroring the Fig 3a discussion."""

    def rel(name, cols):
        return Relation(name, pd.DataFrame({c: [1] for c in cols}))

    # J1: chain (A,B) - (B,C) - (C,D) - (D,E) - (E,F)
    j1 = chain(
        "j1",
        [rel("r1", ["A", "B"]), rel("r2", ["B2", "C"]), rel("r3", ["C2", "D"]),
         rel("r4", ["D2", "E"]), rel("r5", ["E2", "F"])],
        [("B", "B2"), ("C", "C2"), ("D", "D2"), ("E", "E2")],
    )
    # J2: wider relations
    j2 = chain(
        "j2",
        [rel("s1", ["A", "B", "C"]), rel("s2", ["C2", "D"]), rel("s3", ["D2", "E", "F"])],
        [("C", "C2"), ("D", "D2")],
    )
    # J3: a tree — root holds (A,B), children (B,C,D) and (B,E,F)
    root = Node(rel("t1", ["A", "B"]))
    root.edges.append(Edge("B", "B2", Node(rel("t2", ["B2", "C", "D"]))))
    root.edges.append(Edge("B", "B3", Node(rel("t3", ["B3", "E", "F"]))))
    j3 = Join("j3", root)
    return [j1, j2, j3]


def template_cost(joins, template, *, zero_weight=0.0):
    """Total score of a template's consecutive pairs."""
    c = _score_matrix(joins, template, zero_weight)
    return sum(c[i, i + 1] for i in range(len(template) - 1))


def test_pair_scores_colocated_zero(paper_like_joins):
    c = _score_matrix(paper_like_joins, ["A", "B"], 0.0)
    assert c[0, 1] == c[1, 0] == 0.0  # co-located everywhere


def test_pair_scores_distance_sum(paper_like_joins):
    c = _score_matrix(paper_like_joins, ["A", "F"], 0.0)
    # A..F distances: j1 = 4 edges, j2 = 2 edges, j3 = A in root, F in t3 → 1
    assert c[0, 1] == c[1, 0] == 4 + 2 + 1


@pytest.mark.parametrize("zero_weight", [0.0, 0.25])
def test_best_template_is_optimal(paper_like_joins, zero_weight):
    attrs = ["A", "B", "C", "D", "E", "F"]
    t = best_template(paper_like_joins, attrs, zero_weight=zero_weight)
    assert sorted(t) == sorted(attrs)
    best = template_cost(paper_like_joins, t, zero_weight=zero_weight)
    brute = min(
        template_cost(paper_like_joins, list(p), zero_weight=zero_weight)
        for p in permutations(attrs)
    )
    assert best == pytest.approx(brute)


@pytest.mark.parametrize("zero_weight", [0.0, 0.25])
def test_fixed_prefix_template_is_optimal(paper_like_joins, zero_weight):
    attrs = ["A", "B", "C", "D", "E", "F"]
    for a, b in permutations(attrs, 2):
        t = best_template(paper_like_joins, attrs, zero_weight=zero_weight, fixed_prefix=(a, b))
        assert t[:2] == [a, b] and sorted(t) == attrs
        brute = min(
            template_cost(paper_like_joins, [a, b, *p], zero_weight=zero_weight)
            for p in permutations([x for x in attrs if x not in (a, b)])
        )
        assert template_cost(paper_like_joins, t, zero_weight=zero_weight) == pytest.approx(brute)


def test_template_prefers_original_chain(paper_like_joins):
    # The natural order A,B,C,D,E,F (or its reverse) is optimal here —
    # exactly the Example 7 argument.
    t = best_template(paper_like_joins, ["A", "B", "C", "D", "E", "F"])
    assert t in (list("ABCDEF"), list("FEDCBA"))


def test_single_attribute_template():
    r = Relation("r", pd.DataFrame({"A": [1]}))
    j = chain("j", [r], [])
    assert best_template([j], ["A"]) == ["A"]


def test_too_many_attributes_rejected_before_the_table():
    cols = [f"A{i}" for i in range(19)]
    j = chain("j", [Relation("r", pd.DataFrame({c: [1] for c in cols}))], [])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="up to 18"):
            best_template([j], cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the table would be 2^19 × 19 floats (76 MiB)


def test_two_attribute_fixed_prefix():
    j = chain("j", [Relation("r", pd.DataFrame({"A": [1], "B": [2]}))], [])
    assert best_template([j], fixed_prefix=("B", "A")) == ["B", "A"]
    assert best_template([j], fixed_prefix=("A", "B")) == ["A", "B"]


def test_tree_distance(paper_like_joins):
    """With ``zero_weight=0`` one join's score is its hop count."""
    hops = _score_matrix(paper_like_joins[2:], list("ABCDF"), zero_weight=0)
    assert hops[0, 1] == 0  # A, B
    assert hops[2, 3] == 0  # C, D
    assert hops[0, 2] == 1  # A, C
    assert hops[2, 4] == 2  # C, F via the root
