"""RANDOM-WALK warm-up: HT sizes, overlap ratios, CIs, convergence."""
import numpy as np
import pandas as pd
import pytest

from repro.core.exact import full_join_union
from repro.core.join_sampler import UnionContext
from repro.core.join_spec import Relation, chain
from repro.core.randomwalk_union import (
    estimate_from_state,
    overlap_ci_halfwidth,
    overlap_ratio,
    randomwalk_warmup,
)


@pytest.fixture(scope="module")
def workload(spark):
    g = np.random.default_rng(3)
    n = 100
    a = pd.DataFrame({"x": g.integers(1, 15, n), "pa": np.arange(n)})
    b = pd.DataFrame({"bx": np.arange(1, 15), "pb": np.arange(14)})
    joins = []
    for i, sl in enumerate([(0, 60), (30, 100)]):
        ra = Relation("a", a.iloc[sl[0] : sl[1]].reset_index(drop=True))
        rb = Relation("b", b)
        joins.append(chain(f"w{i}", [ra, rb], [("x", "bx")]))
    uctx = UnionContext(joins)
    ex = full_join_union(spark, joins)
    return uctx, ex


@pytest.fixture(scope="module")
def warm(workload):
    uctx, _ = workload
    est, state = randomwalk_warmup(uctx, batch=300, max_samples=900, seed=4)
    return est, state


def test_ht_sizes_accurate(workload, warm):
    uctx, ex = workload
    est, state = warm
    for j in uctx.names:
        assert est.sizes[j] == pytest.approx(ex.sizes[j], rel=0.15)


def test_overlap_estimate_accurate(workload, warm):
    uctx, ex = workload
    est, _ = warm
    d = frozenset(uctx.names)
    assert est.overlaps[d] == pytest.approx(ex.overlap(d), rel=0.3)


def test_union_and_ratios_accurate(workload, warm):
    uctx, ex = workload
    est, _ = warm
    assert est.union == pytest.approx(ex.union, rel=0.2)
    for j in uctx.names:
        assert abs(est.ratios[j] - ex.ratios()[j]) < 0.1


def test_overlap_ratio_in_unit_interval(workload, warm):
    uctx, _ = workload
    _, state = warm
    r = overlap_ratio(state, uctx.names, frozenset(uctx.names))
    assert 0.0 <= r <= 1.0


def test_ci_halfwidth_shrinks(workload):
    uctx, _ = workload
    _, s1 = randomwalk_warmup(uctx, batch=100, max_samples=100, rel_halfwidth=0.0, seed=5)
    _, s2 = randomwalk_warmup(uctx, batch=400, max_samples=800, rel_halfwidth=0.0, seed=5)
    d = frozenset(uctx.names)
    hw1 = overlap_ci_halfwidth(s1, uctx.names, d)
    hw2 = overlap_ci_halfwidth(s2, uctx.names, d)
    assert hw2 < hw1


def test_pools_carry_probabilities(workload, warm):
    uctx, _ = workload
    _, state = warm
    for j in uctx.names:
        pool = state.pools[j]
        assert len(pool) > 0
        assert (pool["__p"] > 0).all()
        assert state.member[j].shape == (len(pool), len(uctx.names))
        # every pool tuple is a member of its own join
        assert state.member[j][:, uctx.names.index(j)].all()


def test_estimate_from_state_incremental(workload, warm):
    uctx, _ = workload
    _, state = warm
    est2 = estimate_from_state(uctx, state)
    assert set(est2.sizes) == set(uctx.names)
    assert est2.method == "rw"


def test_unbiasedness_over_trials(workload):
    """Mean of several independent HT size estimates ≈ the exact size."""
    uctx, ex = workload
    j = uctx.names[0]
    ests = []
    for s in range(5):
        est, _ = randomwalk_warmup(
            uctx, batch=150, max_samples=150, rel_halfwidth=0.0, seed=100 + s
        )
        ests.append(est.sizes[j])
    assert np.mean(ests) == pytest.approx(ex.sizes[j], rel=0.12)
