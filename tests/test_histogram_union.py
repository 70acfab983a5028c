"""HISTOGRAM-BASED warm-up: Theorem 4 soundness and estimate assembly."""
import numpy as np
import pandas as pd
import pytest

from repro.core.exact import full_join_union
from repro.core.histogram_union import (
    build_estimate,
    chain_view,
    histogram_warmup,
    overlap_bound,
)
from repro.core.join_sampler import UnionContext
from repro.core.join_spec import Relation, chain


def random_chain_workload(seed: int, n_joins: int = 3):
    """Random equi-length 3-relation chains over overlapping slices."""
    g = np.random.default_rng(seed)
    n = 80
    a = pd.DataFrame({"x": g.integers(1, 12, n), "pa": np.arange(n)})
    b = pd.DataFrame({"bx": g.integers(1, 12, 50), "y": g.integers(1, 9, 50), "pb": np.arange(50)})
    c = pd.DataFrame({"cy": g.integers(1, 9, 30), "pc": np.arange(30)})
    joins = []
    for i in range(n_joins):
        lo = int(g.integers(0, 30))
        hi = int(g.integers(lo + 20, n + 1))
        ra = Relation("a", a.iloc[lo:hi].reset_index(drop=True))
        rb = Relation("b", b)
        rc = Relation("c", c)
        joins.append(chain(f"r{i}", [ra, rb, rc], [("x", "bx"), ("y", "cy")]))
    return joins


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_theorem4_bound_sound_on_random_workloads(seed):
    joins = random_chain_workload(seed)
    ex = full_join_union(None, joins)
    views = {j.name: chain_view(j) for j in joins}
    from itertools import combinations

    names = [j.name for j in joins]
    for k in range(2, len(names) + 1):
        for d in combinations(names, k):
            bound = overlap_bound([views[x] for x in d])
            truth = ex.overlap(frozenset(d))
            assert bound >= truth - 1e-9, f"unsound bound for {d}"


@pytest.mark.parametrize("seed", [0, 2])
def test_single_join_bound_is_size_bound(seed):
    joins = random_chain_workload(seed, n_joins=1)
    view = chain_view(joins[0])
    from duckjoin import count

    assert overlap_bound([view]) >= count(joins[0])


def test_histogram_warmup_estimate_shape():
    joins = random_chain_workload(5)
    uctx = UnionContext(joins)
    est = histogram_warmup(uctx, size_method="eo")
    assert est.method == "hist-eo"
    assert set(est.sizes) == set(uctx.names)
    assert est.union >= max(est.sizes.values()) - 1e-9
    assert est.union <= sum(est.sizes.values()) + 1e-9
    probs = est.cover_probs()
    assert sum(probs.values()) == pytest.approx(1.0)
    # EO sizes are upper bounds of the truth
    for j in joins:
        assert est.sizes[j.name] >= uctx.ctx(j.name).size_exact


def test_histogram_warmup_ew_sizes_exact():
    joins = random_chain_workload(6)
    uctx = UnionContext(joins)
    est = histogram_warmup(uctx, size_method="ew")
    for j in joins:
        assert est.sizes[j.name] == uctx.ctx(j.name).size_exact


def test_avg_refinement_not_larger():
    joins = random_chain_workload(7)
    v_max = [chain_view(j, refine="max") for j in joins]
    v_avg = [chain_view(j, refine="avg") for j in joins]
    assert overlap_bound(v_avg) <= overlap_bound(v_max) + 1e-9


def test_build_estimate_clamps_union():
    names = ["a", "b"]
    sizes = {"a": 100.0, "b": 80.0}
    est = build_estimate("x", names, sizes, {frozenset(names): 500.0})
    assert est.union >= 100.0
    assert est.union <= 180.0
    est2 = build_estimate("x", names, sizes, {frozenset(names): 0.0})
    assert est2.union == pytest.approx(180.0)


def test_cover_probs_degenerate_fallback():
    names = ["a", "b"]
    sizes = {"a": 50.0, "b": 50.0}
    # overlap "bound" equal to both sizes ⇒ cover of b collapses to 0
    est = build_estimate("x", names, sizes, {frozenset(names): 50.0})
    probs = est.cover_probs()
    assert sum(probs.values()) == pytest.approx(1.0)


def test_view_sets_take_min():
    joins = random_chain_workload(8)
    uctx = UnionContext(joins)
    views = [chain_view(j) for j in joins]
    est1 = histogram_warmup(uctx, views=views)
    est2 = histogram_warmup(uctx, view_sets=[views, views])
    for d in est1.overlaps:
        assert est2.overlaps[d] == pytest.approx(est1.overlaps[d])
