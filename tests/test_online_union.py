"""ONLINE-UNION (Algorithm 2): reuse, backtracking, per-phase accounting."""
import numpy as np
import pandas as pd
import pytest

from repro.core.exact import union_tuples
from repro.core.join_sampler import UnionContext
from repro.core.join_spec import Relation, chain
from repro.core.online_union import _reuse_draws, online_union_sample


@pytest.fixture(scope="module")
def workload():
    g = np.random.default_rng(7)
    n = 150
    a = pd.DataFrame({"x": g.integers(1, 20, n), "pa": np.arange(n)})
    b = pd.DataFrame({"bx": np.arange(1, 20), "pb": np.arange(19)})
    joins = []
    for i, sl in enumerate([(0, 90), (60, 150)]):
        ra = Relation("a", a.iloc[sl[0] : sl[1]].reset_index(drop=True))
        rb = Relation("b", b)
        joins.append(chain(f"o{i}", [ra, rb], [("x", "bx")]))
    uctx = UnionContext(joins)
    truth = union_tuples(joins)
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


def test_complete_on_a_normal_call(workload):
    uctx, _ = workload
    res = online_union_sample(uctx, 120, reuse=True, seed=1, warmup_max=300)
    assert res.complete and len(res.samples) == 120


def test_short_return_says_incomplete(workload):
    """When ``max_rounds`` runs out first, the result is short and says so."""
    uctx, _ = workload
    res = online_union_sample(uctx, 2000, reuse=False, seed=9, warmup_max=200, max_rounds=1)
    assert 0 < len(res.samples) < 2000
    assert res.complete is False


def _reuse_loop(rng, p, cover, need):
    """The reuse phase as a loop, one draw per attempt: pick uniformly from
    the live pool, accept with p_min/p(t) (accepted tuples leave the pool),
    keep it if in the cover; stop at ``need`` kept, a dry pool or
    4·|pool| attempts."""
    w = p.min() / p
    live, kept, attempts = list(range(len(p))), [], 0
    while len(kept) < need and live and attempts < 4 * len(p):
        attempts += 1
        pos = live[int(rng.integers(len(live)))]
        if rng.random() >= w[pos]:
            continue
        live.remove(pos)
        if cover[pos]:
            kept.append(pos)
    return kept, attempts


@pytest.mark.parametrize("need", [1, 3, 6])
def test_reuse_draws_match_the_loop(need):
    """The vectorized reuse step has the loop's distribution: per-tuple
    inclusion frequencies, the number kept and the attempt count agree
    within 5 standard errors over 4000 calls of each."""
    p = np.array([0.02, 0.05, 0.1, 0.1, 0.3, 0.5, 0.9])
    cover = np.array([1, 1, 0, 1, 1, 0, 1], dtype=bool)
    reps = 4000
    stats = {}
    for name, draw in [
        ("loop", _reuse_loop),
        ("vec", lambda rng, p, c, k: _reuse_draws(rng, p, c, k)[1:]),
    ]:
        rng = np.random.default_rng(11)
        incl = np.zeros((reps, len(p)))
        attempts = np.zeros(reps)
        for r in range(reps):
            kept, attempts[r] = draw(rng, p, cover, need)
            incl[r, list(kept)] = 1
        stats[name] = (incl, incl.sum(axis=1), attempts)
    for a, b in zip(stats["loop"], stats["vec"]):
        se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / reps)
        assert (np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5 * se + 1e-12).all()
    assert not stats["vec"][0][:, ~cover].any()


def test_reuse_draws_stop_at_the_cap():
    """One light tuple and seven heavy ones (acceptance 1e-6): after the
    light one is taken, no acceptance fits in 4·|pool| attempts, so fewer
    than ``need`` come back, after exactly 4·|pool| attempts."""
    p = np.array([1e-6] + [1.0] * 7)
    cover = np.ones(8, dtype=bool)
    rng = np.random.default_rng(3)
    for _ in range(50):
        acc, kept, attempts = _reuse_draws(rng, p, cover, 3)
        assert len(kept) <= 1 and attempts == 32
        assert set(acc) <= {0}
