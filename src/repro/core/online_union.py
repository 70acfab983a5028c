"""ONLINE-UNION sampling — Algorithm 2 (§7): reuse + backtracking.

Parameters are initialized with the cheap HISTOGRAM-BASED method, then a
RANDOM-WALK warm-up collects per-join sample pools (with recorded p(t) and
membership bitmaps) and refines the estimates. During the main sampling
phase a slot assigned to join j first consumes the j-pool: a pool tuple t
drawn uniformly is accepted with probability w(t) = p_min/p(t) (p_min = the
pool's smallest recorded probability), which uniformizes the wander-join
draws. The paper's ratio R = l/(p(t)·|J_j|) has the same expectation but
R ≈ l, so one accepted draw would emit pool-size many copies of a single
tuple — unbounded variance; the normalized importance-rejection used here
is the bounded-acceptance equivalent (see DESIGN.md). Accepted tuples
leave the pool (§7's without-replacement note); when the pool is dry, the
slot falls back to the §3.2 join sampler. Cover uniformity uses the same
retry-within-join semantics as Algorithm 1.

Rejected tuples stay in the pool and accepted ones leave, so the accepted
sequence is weighted sampling without replacement with weights w, drawn in
one vectorized step per join and round (:func:`_reuse_draws`) by sorting
Efraimidis–Spirakis keys (log form: E/w, E ~ Exp(1)). Before each
acceptance the attempt count is geometric with rate (live weight)/(live
count), so the cap of 4·|pool| attempts per join and round and the φ
trigger keep the per-draw loop's distribution.

Every φ accepted-or-rejected probability records, the join / overlap /
union estimates are recomputed from the accumulated state and every kept
sample is re-accepted with min(1, new_ratio/old_ratio) — the backtracking
accept/reject that restores uniformity across rounds. Backtracking stops
once the confidence level reaches γ.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import pandas as pd

from .histogram_union import WarmupEstimate, auto_histogram_warmup
from .join_sampler import JOIN, UnionContext, sample_join
from .membership import first_join
from .randomwalk_union import (
    RWState,
    estimate_from_state,
    overlap_ci_halfwidth,
    randomwalk_warmup,
)
from .union_sampler import _alloc, _drop_empty
from .walker import P


@dataclass
class OnlineResult:
    samples: pd.DataFrame
    estimate: WarmupEstimate
    timings: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    n_backtracks: int = 0
    n_backtrack_rejected: int = 0
    complete: bool = True  # False: max_rounds ran out before n samples

    def per_sample_time(self, phase: str) -> float:
        """Seconds per accepted sample in the 'reuse' or 'regular' phase
        (the Fig 6b metric)."""
        c = self.counts.get(f"{phase}_accepted", 0)
        return self.timings.get(phase, 0.0) / c if c else float("nan")


def _reuse_draws(
    rng: np.random.Generator, p: np.ndarray, cover: np.ndarray, need: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """One join's reuse draws from a pool with probabilities ``p``: draw
    uniformly from the live pool, accept with p_min/p(t), keep an accepted
    tuple if ``cover`` marks it, until ``need`` are kept, the pool is dry
    or 4·|pool| attempts were made. Returns the accepted positions in
    acceptance order, the kept ones among them, and the attempt count."""
    m = len(p)
    w = p.min() / p
    order = np.argsort(rng.standard_exponential(m) / w, kind="stable")
    live_w = np.cumsum(w[order][::-1])[::-1]  # live weight before each acceptance
    q = np.minimum(live_w / np.arange(m, 0, -1), 1.0)
    done_at = np.cumsum(rng.geometric(q))  # attempts made at each acceptance
    n_acc = int(np.searchsorted(done_at, 4 * m, side="right"))  # within the cap
    k = int(np.searchsorted(np.cumsum(cover[order]), need))  # the need-th kept
    if k < n_acc:
        n_acc, attempts = k + 1, done_at[k]
    elif n_acc == m:
        attempts = done_at[-1]  # pool dry
    else:
        attempts = 4 * m  # cap binds
    acc = order[:n_acc]
    return acc, acc[cover[acc]], int(attempts)


def online_union_sample(
    uctx: UnionContext,
    n: int,
    *,
    reuse: bool = True,
    phi: int = 200,
    gamma: float = 0.9,
    sampler: str = "ew",
    seed: int = 0,
    warmup_batch: int = 200,
    warmup_max: int = 600,
    max_rounds: int = 300,
) -> OnlineResult:
    rng = np.random.default_rng(seed)
    names = uctx.names
    jidx_of = {j: i for i, j in enumerate(names)}

    t0 = time.perf_counter()
    hist_est = auto_histogram_warmup(uctx, size_method="eo")
    t_hist = time.perf_counter() - t0

    t0 = time.perf_counter()
    rw_est, state = randomwalk_warmup(
        uctx, batch=warmup_batch, max_samples=warmup_max, seed=int(rng.integers(2**31))
    )
    t_rw = time.perf_counter() - t0

    # Per §7: parameters START from the cheap HISTOGRAM-BASED estimate;
    # the first backtracking step swaps in the random-walk refinement
    # (estimate_from_state) and re-accepts prior samples accordingly.
    est = hist_est
    cp = est.cover_probs()
    del rw_est  # superseded at the first backtracking update
    # Live pools, and whether each pool tuple is in its join's cover: its
    # min-index join f(t) (from the membership bitmap) is that join.
    pools = {j: state.pools[j] for j in names if reuse and len(state.pools[j])}
    covers = {j: np.isin(first_join(state.member[j]), (jidx_of[j], -1)) for j in pools}

    outstanding = _alloc(rng, n, _drop_empty(uctx, cp))
    kept: list[pd.DataFrame] = []  # kept samples, value columns, in order
    kept_join: list[np.ndarray] = []  # the join index of each kept row
    kept_ratio: list[np.ndarray] = []  # its join's cover prob when kept
    t_reuse = t_regular = 0.0
    c_reuse = c_regular = 0
    records_since_bt = 0
    n_bt = n_bt_rej = 0
    confident = False
    rounds = 0

    def keep(rows: pd.DataFrame, j: str) -> None:
        kept.append(rows[uctx.value_cols])
        kept_join.append(np.full(len(rows), jidx_of[j]))
        kept_ratio.append(np.full(len(rows), cp[j]))

    while outstanding and rounds < max_rounds:
        rounds += 1
        for j, need in outstanding.items():
            # ---- reuse phase -------------------------------------------
            if not len(pools.get(j, ())):
                continue
            t0 = time.perf_counter()
            pool, cover = pools[j], covers[j]
            acc, take, attempts = _reuse_draws(rng, pool[P].to_numpy(), cover, need)
            records_since_bt += attempts
            keep(pool.iloc[take], j)
            live = np.ones(len(pool), dtype=bool)
            live[acc] = False
            pools[j], covers[j] = pool[live], cover[live]
            t_reuse += time.perf_counter() - t0
            c_reuse += len(take)
            outstanding[j] = need - len(take)
        outstanding = {j: v for j, v in outstanding.items() if v > 0}
        # ---- regular phase (§3.2 sampler + cover retry), all joins at once
        if outstanding:
            t0 = time.perf_counter()
            draws = {
                uctx.ctx(j): int(np.ceil(need * 1.5)) + 4 for j, need in outstanding.items()
            }
            batch = sample_join(draws, method=sampler, seed=int(rng.integers(2**31)))
            f = uctx.membership.min_index(batch)
            in_cover = f == batch[JOIN].map(jidx_of).to_numpy()
            records_since_bt += len(batch)
            for j, need in outstanding.items():
                ok = batch[(batch[JOIN] == j).to_numpy() & in_cover].head(need)
                keep(ok, j)
                c_regular += len(ok)
                outstanding[j] = need - len(ok)
            t_regular += time.perf_counter() - t0
        outstanding = {j: v for j, v in outstanding.items() if v > 0}

        # ---- backtracking with parameter update (every φ records) -------
        if records_since_bt >= phi and not confident:
            records_since_bt = 0
            est = estimate_from_state(uctx, state)
            cp = est.cover_probs()
            n_bt += 1
            if kept:  # one keep decision per kept row, one filter
                rows = pd.concat(kept, ignore_index=True)
                jix, old_r = np.concatenate(kept_join), np.concatenate(kept_ratio)
                new_r = np.array([cp[j] for j in names])[jix]
                p_keep = np.divide(new_r, old_r, out=np.ones_like(new_r), where=old_r > 0)
                ok = rng.random(len(rows)) < p_keep
                n_bt_rej += int(len(ok) - ok.sum())
                kept, kept_join, kept_ratio = [rows[ok]], [jix[ok]], [new_r[ok]]
            # redistribute the rejected slots
            miss = n - sum(map(len, kept_join)) - sum(outstanding.values())
            if miss > 0:
                for jj, c in _alloc(rng, miss, _drop_empty(uctx, cp)).items():
                    outstanding[jj] = outstanding.get(jj, 0) + c
            confident = _confidence_reached(uctx, state, est, gamma)

    samples = pd.concat(kept, ignore_index=True) if kept else pd.DataFrame(columns=uctx.value_cols)
    samples = samples.head(n)
    return OnlineResult(
        samples=samples,
        estimate=est,
        timings={"warmup_hist": t_hist, "warmup_rw": t_rw, "reuse": t_reuse, "regular": t_regular},
        counts={"reuse_accepted": c_reuse, "regular_accepted": c_regular},
        n_backtracks=n_bt,
        n_backtrack_rejected=n_bt_rej,
        complete=len(samples) == n,
    )


def _confidence_reached(
    uctx: UnionContext, state: RWState, est: WarmupEstimate, gamma: float
) -> bool:
    """γ-confidence: every overlap CI half-width below (1−γ)·|O| (§7)."""
    names = uctx.names
    for k in range(2, len(names) + 1):
        for d in combinations(names, k):
            delta = frozenset(d)
            o = est.overlaps.get(delta, 0.0)
            if o <= 0:
                continue
            if overlap_ci_halfwidth(state, names, delta) > (1 - gamma) * o:
                return False
    return True
