"""Algorithm 1: uniformity over the set union (Theorem 1), variants,
cost accounting. Uses a 3-join union with substantial, asymmetric overlap
so cover sizes genuinely differ from join sizes."""
import importlib.abc
import sys

import numpy as np
import pandas as pd
import pytest

from repro.core.cyclic import decompose_triangle, sample_cyclic
from repro.core.exact import full_join_union, union_tuples
from repro.core.histogram_union import auto_histogram_warmup, build_estimate
from repro.core.join_sampler import UnionContext
from repro.core.join_spec import Relation, chain
from repro.core.membership import MembershipIndex
from repro.core.online_union import online_union_sample
from repro.core.union_sampler import (
    disjoint_union_sample,
    set_union_sample,
    warmup_params,
)
from repro.core.randomwalk_union import randomwalk_warmup
from repro.experiments.tables import prewarm
from repro.workloads import uq1, uq2, uq3
from deadline import deadline
from statutil import assert_not_uniform, assert_uniform


@pytest.fixture(scope="module")
def tri_union():
    """Three 2-relation chain joins over overlapping horizontal slices."""
    g = np.random.default_rng(1)
    n = 120
    a = pd.DataFrame({"x": g.integers(1, 25, n), "pa": np.arange(n)})
    b = pd.DataFrame({"bx": np.arange(1, 25), "pb": np.arange(100, 124)})
    joins = []
    slices = [(0, 70), (40, 100), (60, 120)]
    for i, (lo, hi) in enumerate(slices):
        ra = Relation("a", a.iloc[lo:hi].reset_index(drop=True))
        rb = Relation("b", b)
        joins.append(chain(f"u{i}", [ra, rb], [("x", "bx")]))
    return joins


@pytest.fixture(scope="module")
def uctx(tri_union):
    return UnionContext(tri_union)


@pytest.fixture(scope="module")
def true_union(tri_union):
    return union_tuples(tri_union)


@pytest.fixture(scope="module")
def exact_est(uctx):
    return warmup_params(uctx, "exact")


def test_exact_warmup_consistent(uctx, exact_est, true_union):
    assert exact_est.union == pytest.approx(len(true_union))
    assert sum(exact_est.covers.values()) == pytest.approx(len(true_union))


@pytest.mark.parametrize("variant", ["cover-retry", "bernoulli"])
def test_uniform_with_exact_params(uctx, exact_est, true_union, variant):
    res = set_union_sample(
        uctx, 4000, warmup=exact_est, sampler="ew", variant=variant, seed=9
    )
    assert len(res.samples) == 4000
    assert_uniform(res.samples, true_union, uctx.value_cols)


def test_literal_reselect_is_biased(uctx, exact_est, true_union):
    """Algorithm 1 read literally (re-select a join after rejection) is NOT
    uniform — the motivation for retry-within-join (DESIGN.md)."""
    res = set_union_sample(
        uctx, 6000, warmup=exact_est, sampler="ew", variant="literal", seed=10
    )
    assert_not_uniform(res.samples, true_union, uctx.value_cols)


def test_lazy_variant_returns_n(uctx, exact_est):
    res = set_union_sample(
        uctx, 150, warmup=exact_est, sampler="ew", variant="lazy", seed=11
    )
    assert len(res.samples) == 150
    assert res.n_drawn >= 150


def test_lazy_samples_are_union_members(uctx, exact_est, true_union):
    res = set_union_sample(
        uctx, 200, warmup=exact_est, sampler="ew", variant="lazy", seed=12
    )
    merged = res.samples[uctx.value_cols].merge(
        true_union, how="left", indicator=True
    )
    assert (merged["_merge"] == "both").all()


def test_samples_subset_of_union(uctx, exact_est, true_union):
    res = set_union_sample(uctx, 300, warmup=exact_est, sampler="eo", seed=13)
    merged = res.samples[uctx.value_cols].merge(
        true_union, how="left", indicator=True
    )
    assert (merged["_merge"] == "both").all()


def test_per_join_acceptance_tracks_covers(uctx, exact_est):
    res = set_union_sample(uctx, 3000, warmup=exact_est, sampler="ew", seed=14)
    total = sum(res.per_join_accepted.values())
    for j in uctx.names:
        expect = exact_est.covers[j] / exact_est.union
        got = res.per_join_accepted[j] / total
        assert got == pytest.approx(expect, abs=0.05)


def test_estimated_warmups_still_close_to_uniform(uctx, true_union):
    """With HISTOGRAM-BASED estimates uniformity is approximate; bound the
    total-variation distance loosely."""
    res = set_union_sample(uctx, 4000, warmup="hist-ew", sampler="ew", seed=15)
    keys = res.samples.groupby(uctx.value_cols).size()
    k = len(true_union)
    emp = np.zeros(k)
    emp[: len(keys)] = np.sort(keys.to_numpy())[::-1]
    tv = 0.5 * np.abs(emp / 4000 - 1 / k).sum()
    assert tv < 0.35


def test_timings_and_counters(uctx, exact_est):
    res = set_union_sample(uctx, 100, warmup=exact_est, sampler="ew", seed=16)
    assert res.timings["warmup"] >= 0
    assert res.timings["accepted"] > 0
    assert res.n_drawn >= 100
    assert res.n_drawn == res.n_rejected_cover + res.n_drawn - res.n_rejected_cover


def test_cost_theorem2_bound(uctx, exact_est):
    """ψ (total draws) stays within a small constant of N + N log N."""
    n = 500
    res = set_union_sample(uctx, n, warmup=exact_est, sampler="ew", seed=17)
    bound = n + n * np.log(n)
    assert res.n_drawn <= 3 * bound


def test_disjoint_union_sampler(uctx, tri_union):
    s = disjoint_union_sample(uctx, 3000, seed=18)
    assert len(s) == 3000
    # frequency of each tuple ∝ its multiplicity across joins
    sizes = {j.name: uctx.ctx(j.name).size_exact for j in tri_union}
    assert sum(sizes.values()) > 0


def test_unknown_variant(uctx, exact_est):
    with pytest.raises(ValueError):
        set_union_sample(uctx, 1, warmup=exact_est, variant="nope")


def test_unknown_warmup(uctx):
    with pytest.raises(ValueError):
        warmup_params(uctx, "nope")


class _BlockPyspark(importlib.abc.MetaPathFinder):
    """Records and refuses every import of a pyspark module."""

    def __init__(self):
        self.attempts = []

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "pyspark":
            self.attempts.append(name)
            raise ImportError(f"{name} imported by an operation that must not use Spark")
        return None


@pytest.fixture
def no_spark(monkeypatch):
    """pyspark cannot be imported for the rest of the test, and already
    imported pyspark modules are hidden, so an operation that would start a
    Spark job fails instead; the test reads ``attempts`` to be sure no
    ``except ImportError`` swallowed one. Module-level imports are pinned by
    ``test_layering``, whose subprocess guard also runs these operations in a
    fresh interpreter."""
    for name in [m for m in sys.modules if m.split(".")[0] == "pyspark"]:
        monkeypatch.delitem(sys.modules, name)
    blocker = _BlockPyspark()
    monkeypatch.setattr(sys, "meta_path", [blocker, *sys.meta_path])
    return blocker


def test_one_walk_job_per_round(no_spark, uctx, exact_est):
    """No Spark on the sampling path: walks, membership probes and a fresh
    membership index run without pyspark, so they start no Spark job."""
    res = set_union_sample(uctx, 200, warmup=exact_est, sampler="eo", seed=19)
    assert len(res.samples) == 200
    assert 1 <= res.rounds
    randomwalk_warmup(uctx, batch=200, max_samples=600, seed=20)
    MembershipIndex(uctx.joins)
    assert no_spark.attempts == []


def test_warmups_start_no_job(no_spark, uctx):
    """Degree statistics come from the relations' frames: a HISTOGRAM-BASED
    warm-up runs without pyspark on a chain union and on UQ3 (the splitting
    path), and so does ONLINE-UNION, which runs one on every call."""
    w3 = uq3(None, sf=0.002, overlap=0.2, seed=4)
    for u in (uctx, w3.uctx):
        for method in ("eo", "ew"):
            auto_histogram_warmup(u, size_method=method)
    res = online_union_sample(uctx, 100, reuse=True, seed=23)
    assert len(res.samples) == 100
    assert no_spark.attempts == []


def test_exact_and_cyclic_start_no_job(no_spark, uctx):
    """FullJoinUnion and cyclic sampling run on the driver without pyspark."""
    w3 = uq3(None, sf=0.002, overlap=0.2, seed=4)
    for u in (uctx, w3.uctx):
        ex = full_join_union(None, u.joins)
        assert ex.union > 0, u.names
    g = np.random.default_rng(5)
    frames = [
        pd.DataFrame({a: g.integers(1, 5, 20), b: g.integers(1, 5, 20)})
        for a, b in ["ab", "bc", "ca"]
    ]
    r1, r2, r3 = (Relation(f"r{i}", f) for i, f in enumerate(frames))
    cj = decompose_triangle("tri", r1, r2, ("b", "b"), r3)
    assert cj.size_bound() > 0
    assert len(sample_cyclic(cj, 50, seed=6)) == 50
    assert no_spark.attempts == []


@pytest.mark.parametrize("build", [uq1, uq2, uq3])
def test_workloads_build_without_spark_jobs(no_spark, build):
    """Relations are pandas frames from generation on: building a workload,
    reading every relation and building its indexes run without pyspark.
    So Spark's partitioning cannot reorder a relation, and a seed gives the
    same samples whatever the machine."""
    w = build(None, sf=0.002, seed=5)
    for j in w.joins:
        for r in j.relations():
            r.pdf
    prewarm(w.uctx)
    assert no_spark.attempts == []


@pytest.mark.parametrize("empty_size", [0.0, 50.0])
def test_union_with_empty_join_returns_n(tri_union, empty_size):
    """An empty join in the union gets no slots, even when the estimate
    wrongly gives it a size, so the other joins fill all N of them."""
    b = tri_union[0].relations()[1]
    empty = Relation(
        "a", pd.DataFrame({"x": [97, 98, 99], "pa": [0, 1, 2]})
    )
    joins = [tri_union[0], chain("empty", [empty, b], [("x", "bx")]), tri_union[2]]
    u = UnionContext(joins)
    ex = warmup_params(u, "exact")
    sizes = {**ex.sizes, "empty": empty_size}
    est = build_estimate("test", u.names, sizes, ex.overlaps)
    with deadline(60):
        res = set_union_sample(u, 300, warmup=est, seed=21)
    assert len(res.samples) == 300
    assert res.per_join_accepted["empty"] == 0


def test_short_return_says_incomplete():
    """u1 ⊂ u0: u1's cover is empty, but the RANDOM-WALK estimate gives it
    slots, so max_rounds runs out before N; the result says so. With the
    HISTOGRAM-BASED estimate the call finishes and says that too."""
    g = np.random.default_rng(1)
    a = pd.DataFrame({"x": g.integers(1, 25, 120), "pa": np.arange(120)})
    b = Relation("b", pd.DataFrame({"bx": np.arange(1, 25), "pb": np.arange(24)}))
    joins = [
        chain(f"u{i}", [Relation("a", a.iloc[:hi].reset_index(drop=True)), b], [("x", "bx")])
        for i, hi in enumerate([120, 60])
    ]
    u = UnionContext(joins)
    short = set_union_sample(u, 50, warmup="rw", seed=4, max_rounds=10)
    assert len(short.samples) < 50 and short.complete is False
    full = set_union_sample(u, 50, warmup="hist-ew", seed=4, max_rounds=10)
    assert len(full.samples) == 50 and full.complete is True
