"""The walk plan's Exact-Weight size, Extended Olken bound and Yannakakis
reduction, checked against DuckDB on randomized chains and trees."""
import math

import numpy as np
import pandas as pd
import pytest

import duckjoin
from repro.core.join_sampler import JoinContext
from repro.core.join_spec import Edge, Join, Node, Relation, chain


def random_chain(spark, seed, n_rel=3, fanout=6):
    g = np.random.default_rng(seed)
    rels, conds = [], []
    sizes = g.integers(15, 50, n_rel)
    for i, n in enumerate(sizes):
        data = {f"k{i}": g.integers(1, fanout, n), f"p{i}": np.arange(n)}
        if i + 1 < n_rel:
            data[f"j{i}"] = g.integers(1, fanout, n)
        rels.append(Relation(f"r{i}", spark.createDataFrame(pd.DataFrame(data))))
        if i:
            conds.append((f"j{i-1}", f"k{i}"))
    return chain(f"rc{seed}", rels, conds)


def unreduced_olken(join) -> int:
    """|R_root| · Π M over the relations as given, before any reduction."""
    return len(join.root.relation.pdf) * math.prod(
        int(e.child.relation.pdf[e.child_col].value_counts().max()) for _, e in join.edges()
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_exact_size_random_chains(spark, seed):
    j = random_chain(spark, seed)
    assert JoinContext(j).size_exact == duckjoin.count(j)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_olken_bound_random_chains(spark, seed):
    j = random_chain(spark, seed)
    assert JoinContext(j).size_olken >= duckjoin.count(j)


@pytest.mark.parametrize("seed", [0, 2])
def test_reduction_tightens_olken(spark, seed):
    j = random_chain(spark, seed)
    assert JoinContext(j).size_olken <= unreduced_olken(j)


@pytest.mark.parametrize("seed", [0, 3])
def test_reduction_preserves_size(spark, seed):
    """The plan's reduced frames, joined by DuckDB, give the join's size."""
    j = random_chain(spark, seed)
    assert duckjoin.count(j, JoinContext(j).plan.frames) == duckjoin.count(j)


def test_tree_weights(spark):
    """EW DP on a branching tree: root weight sum = result count."""
    g = np.random.default_rng(7)
    root_pdf = pd.DataFrame({"k": g.integers(1, 5, 20), "m": g.integers(1, 5, 20)})
    l_pdf = pd.DataFrame({"lk": g.integers(1, 5, 15), "pl": np.arange(15)})
    r_pdf = pd.DataFrame({"rm": g.integers(1, 5, 12), "pr": np.arange(12)})
    root = Node(Relation("root", spark.createDataFrame(root_pdf)))
    root.edges.append(Edge("k", "lk", Node(Relation("l", spark.createDataFrame(l_pdf)))))
    root.edges.append(Edge("m", "rm", Node(Relation("r", spark.createDataFrame(r_pdf)))))
    j = Join("t", root)
    expect = (
        root_pdf.merge(l_pdf, left_on="k", right_on="lk")
        .merge(r_pdf, left_on="m", right_on="rm")
        .shape[0]
    )
    assert JoinContext(j).size_exact == expect == duckjoin.count(j)


def test_zero_result_join(spark):
    a = Relation("a", spark.createDataFrame(pd.DataFrame({"x": [1, 2]})))
    b = Relation("b", spark.createDataFrame(pd.DataFrame({"bx": [5, 6], "p": [0, 1]})))
    j = chain("z", [a, b], [("x", "bx")])
    ctx = JoinContext(j)
    assert ctx.size_exact == 0 == duckjoin.count(j)
    assert ctx.size_olken == 0
