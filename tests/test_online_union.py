"""ONLINE-UNION (Algorithm 2): reuse, backtracking, per-phase accounting."""
import numpy as np
import pandas as pd
import pytest

from repro.core.exact import union_tuples
from repro.core.join_sampler import UnionContext
from repro.core.join_spec import Relation, chain
from repro.core.online_union import online_union_sample


@pytest.fixture(scope="module")
def workload(spark):
    g = np.random.default_rng(7)
    n = 150
    a = pd.DataFrame({"x": g.integers(1, 20, n), "pa": np.arange(n)})
    b = pd.DataFrame({"bx": np.arange(1, 20), "pb": np.arange(19)})
    joins = []
    for i, sl in enumerate([(0, 90), (60, 150)]):
        ra = Relation("a", spark.createDataFrame(a.iloc[sl[0] : sl[1]]).cache())
        rb = Relation("b", spark.createDataFrame(b).cache())
        joins.append(chain(f"o{i}", [ra, rb], [("x", "bx")]))
    uctx = UnionContext(spark, joins)
    truth = union_tuples(spark, joins)
    return uctx, truth


def test_returns_n_samples(workload):
    uctx, _ = workload
    res = online_union_sample(uctx, 120, reuse=True, seed=1, warmup_max=300)
    assert len(res.samples) == 120


def test_reuse_phase_used(workload):
    uctx, _ = workload
    res = online_union_sample(uctx, 150, reuse=True, seed=2, warmup_max=300)
    assert res.counts["reuse_accepted"] > 0
    assert res.timings["reuse"] >= 0


def test_without_reuse_all_regular(workload):
    uctx, _ = workload
    res = online_union_sample(uctx, 80, reuse=False, seed=3, warmup_max=300)
    assert res.counts["reuse_accepted"] == 0
    assert res.counts["regular_accepted"] >= 80


def test_reuse_faster_per_sample(workload):
    """The Fig 6b claim: reuse-phase per-sample time ≪ regular phase."""
    uctx, _ = workload
    res = online_union_sample(uctx, 200, reuse=True, seed=4, warmup_max=400)
    if res.counts["reuse_accepted"] and res.counts["regular_accepted"]:
        assert res.per_sample_time("reuse") < res.per_sample_time("regular")


def test_samples_are_union_members(workload):
    uctx, truth = workload
    res = online_union_sample(uctx, 100, reuse=True, seed=5, warmup_max=300)
    merged = res.samples[uctx.value_cols].merge(truth, how="left", indicator=True)
    assert (merged["_merge"] == "both").all()


def test_backtracking_runs_with_small_phi(workload):
    uctx, _ = workload
    res = online_union_sample(
        uctx, 150, reuse=True, seed=6, phi=50, gamma=0.999, warmup_max=200
    )
    assert res.n_backtracks >= 1


def test_approximately_uniform(workload):
    """Loose total-variation check across the true union support."""
    uctx, truth = workload
    res = online_union_sample(uctx, 2500, reuse=True, seed=7, warmup_max=400)
    keys = res.samples.groupby(uctx.value_cols).size()
    k = len(truth)
    emp = np.zeros(k)
    emp[: len(keys)] = np.sort(keys.to_numpy())[::-1]
    tv = 0.5 * np.abs(emp / len(res.samples) - 1 / k).sum()
    assert tv < 0.35


def test_per_sample_time_nan_when_phase_unused(workload):
    uctx, _ = workload
    res = online_union_sample(uctx, 30, reuse=False, seed=8, warmup_max=200)
    assert np.isnan(res.per_sample_time("reuse"))
