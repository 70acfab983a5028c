"""ONLINE-UNION sampling — Algorithm 2 (§7): reuse + backtracking.

Parameters are initialized with the cheap HISTOGRAM-BASED method, then a
RANDOM-WALK warm-up collects per-join sample pools (with recorded p(t) and
membership bitmaps) and refines the estimates. During the main sampling
phase a slot assigned to join j first consumes the j-pool: a pool tuple t
drawn uniformly is accepted with probability p_min/p(t) (p_min = the
pool's smallest recorded probability), which uniformizes the wander-join
draws. The paper's ratio R = l/(p(t)·|J_j|) has the same expectation but
R ≈ l, so one accepted draw would emit pool-size many copies of a single
tuple — unbounded variance; the normalized importance-rejection used here
is the bounded-acceptance equivalent (see DESIGN.md). Accepted tuples
leave the pool (§7's without-replacement note); when the pool is dry, the
slot falls back to the §3.2 join sampler. Cover uniformity uses the same
retry-within-join semantics as Algorithm 1.

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

    def per_sample_time(self, phase: str) -> float:
        """Seconds per accepted sample in the 'reuse' or 'regular' phase
        (the Fig 6b metric)."""
        c = self.counts.get(f"{phase}_accepted", 0)
        return self.timings.get(phase, 0.0) / c if c else float("nan")


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
        uctx,
        batch=warmup_batch,
        max_samples=warmup_max,
        seed=int(rng.integers(2**31)),
    )
    t_rw = time.perf_counter() - t0

    # Per §7: parameters START from the cheap HISTOGRAM-BASED estimate;
    # the first backtracking step swaps in the random-walk refinement
    # (estimate_from_state) and re-accepts prior samples accordingly.
    est = hist_est
    del rw_est  # superseded at the first backtracking update
    pools = {j: state.pools[j].copy() for j in names} if reuse else {
        j: pd.DataFrame() for j in names
    }
    pool_member = {j: state.member[j].copy() for j in names}

    outstanding = _alloc(rng, n, _drop_empty(uctx, est.cover_probs()))
    kept_rows: list[pd.Series] = []
    kept_meta: list[dict] = []  # {join, ratio} for backtracking
    t_reuse = t_regular = 0.0
    c_reuse = c_regular = 0
    records_since_bt = 0
    n_bt = n_bt_rej = 0
    confident = False
    rounds = 0

    def ratio(j: str, e: WarmupEstimate) -> float:
        cp = e.cover_probs()
        return cp[j]

    while outstanding and rounds < max_rounds:
        rounds += 1
        for j, need in outstanding.items():
            jidx = jidx_of[j]
            pool = pools[j]
            # ---- reuse phase -------------------------------------------
            if len(pool):
                t0 = time.perf_counter()
                p_min = float(pool[P].min())
                taken = 0
                remaining = list(range(len(pool)))
                accepted_idx: set[int] = set()
                attempts = 0
                # Each attempt draws uniformly from the live pool; accepted
                # tuples leave it (§7's without-replacement note), rejected
                # ones stay. Acceptance p_min/p(t) uniformizes the draws.
                while taken < need and remaining and attempts < 4 * len(pool):
                    attempts += 1
                    pos = remaining[int(rng.integers(len(remaining)))]
                    row = pool.iloc[pos]
                    records_since_bt += 1
                    if rng.random() >= p_min / row[P]:
                        continue  # rejected; tuple stays in the pool
                    remaining.remove(pos)
                    accepted_idx.add(pos)
                    # cover check from the pre-computed membership bitmap
                    mem = pool_member[j][pos]
                    f = int(np.argmax(mem)) if mem.any() else jidx
                    if f != jidx:
                        continue  # another join's cover — retry within j
                    kept_rows.append(row[uctx.value_cols])
                    kept_meta.append({"join": j, "ratio": ratio(j, est)})
                    taken += 1
                mask = np.ones(len(pool), dtype=bool)
                mask[list(accepted_idx)] = False
                pools[j] = pool[mask].reset_index(drop=True)
                pool_member[j] = pool_member[j][mask]
                t_reuse += time.perf_counter() - t0
                c_reuse += taken
                outstanding[j] = need - taken
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
                ok = batch[(batch[JOIN] == j).to_numpy() & in_cover]
                take = min(len(ok), need)
                for _, row in ok.head(take).iterrows():
                    kept_rows.append(row[uctx.value_cols])
                    kept_meta.append({"join": j, "ratio": ratio(j, est)})
                c_regular += take
                outstanding[j] = need - take
            t_regular += time.perf_counter() - t0
        outstanding = {j: v for j, v in outstanding.items() if v > 0}

        # ---- backtracking with parameter update (every φ records) -------
        if records_since_bt >= phi and not confident:
            records_since_bt = 0
            new_est = estimate_from_state(uctx, state)
            keep_mask = []
            for meta in kept_meta:
                old_r = meta["ratio"]
                new_r = ratio(meta["join"], new_est)
                p_keep = min(1.0, new_r / old_r) if old_r > 0 else 1.0
                ok_keep = rng.random() < p_keep
                keep_mask.append(ok_keep)
                if ok_keep:
                    meta["ratio"] = new_r
            n_bt += 1
            n_bt_rej += keep_mask.count(False)
            kept_rows = [r for r, k in zip(kept_rows, keep_mask) if k]
            kept_meta = [m for m, k in zip(kept_meta, keep_mask) if k]
            # redistribute the rejected slots
            miss = n - len(kept_rows) - sum(outstanding.values())
            if miss > 0:
                probs = _drop_empty(uctx, new_est.cover_probs())
                for jj, c in _alloc(rng, miss, probs).items():
                    outstanding[jj] = outstanding.get(jj, 0) + c
            est = new_est
            confident = _confidence_reached(uctx, state, est, gamma)

    samples = (
        pd.DataFrame(kept_rows).reset_index(drop=True)
        if kept_rows
        else pd.DataFrame(columns=uctx.value_cols)
    )
    return OnlineResult(
        samples=samples.head(n),
        estimate=est,
        timings={
            "warmup_hist": t_hist,
            "warmup_rw": t_rw,
            "reuse": t_reuse,
            "regular": t_regular,
        },
        counts={"reuse_accepted": c_reuse, "regular_accepted": c_regular},
        n_backtracks=n_bt,
        n_backtrack_rejected=n_bt_rej,
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
