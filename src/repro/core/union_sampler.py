"""Union sampling — Algorithm 1 of the paper, plus comparison variants.

Variants
--------
``cover-retry`` (default)
    Non-Bernoulli join selection (§3.1): each of the N requested samples
    draws a join j with probability |J'_j|/|U| once, then repeatedly
    samples J_j until the draw lands in the cover J'_j (i.e. the tuple's
    min-index join f(u) equals j). Conditioned on j, the accepted tuple is
    uniform over J'_j, so P(u) = |J'_j|/|U| · 1/|J'_j| = 1/|U| — exactly
    Theorem 1. Membership f(u) is computed with the exact oracle
    (:mod:`repro.core.membership`), batched.

``bernoulli``
    The §3 "union trick" (Karp–Luby): select j ∝ |J_j|, sample, accept iff
    f(u) = j, and on rejection RE-SELECT a join. Uniform with rate |U|/Σ|J_j|.

``literal``
    Algorithm 1 exactly as printed: cover probabilities but re-select on
    rejection. *Not* uniform when covers differ from sizes — kept to
    demonstrate why retry-within-join is required (see DESIGN.md).

``lazy``
    Algorithm 1's orig_join bookkeeping with revision: no membership
    oracle; a tuple's join assignment is "first join it was seen from" and
    is revised when a lower-index join produces it later.

All variants take the warm-up parameters (sizes, covers, |U|) from a
WarmupEstimate — exact, HISTOGRAM-BASED, or RANDOM-WALK.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .exact import full_join_union
from .histogram_union import WarmupEstimate, auto_histogram_warmup, build_estimate
from .join_sampler import JOIN, SampleStats, UnionContext, sample_join
from .randomwalk_union import randomwalk_warmup


@dataclass
class UnionSampleResult:
    samples: pd.DataFrame
    warmup: WarmupEstimate
    n_drawn: int = 0  # ψ: total tuples obtained from the join subroutine
    n_rejected_cover: int = 0  # duplicates assigned to another join's cover
    timings: dict = field(default_factory=dict)
    per_join_accepted: dict = field(default_factory=dict)
    stats: SampleStats | None = None
    rounds: int = 0  # sampling rounds, each one sample_join call for all joins


def warmup_params(
    uctx: UnionContext, method: str, *, seed: int = 0, **kw
) -> WarmupEstimate:
    """Dispatch the warm-up phase. ``exact`` runs FullJoinUnion (ground
    truth, used by tests and as the paper's reference)."""
    if method in ("hist-eo", "hist-ew"):
        return auto_histogram_warmup(uctx, size_method=method.split("-")[1], **kw)
    if method == "rw":
        est, _ = randomwalk_warmup(uctx, seed=seed, **kw)
        return est
    if method == "exact":
        ex = full_join_union(uctx.spark, uctx.joins)
        overlaps = {}
        names = uctx.names
        from itertools import combinations

        for k in range(2, len(names) + 1):
            for d in combinations(names, k):
                overlaps[frozenset(d)] = float(ex.overlap(frozenset(d)))
        return build_estimate(
            "exact", names, {k: float(v) for k, v in ex.sizes.items()}, overlaps
        )
    raise ValueError(method)


def _alloc(rng: np.random.Generator, n: int, probs: dict[str, float]) -> dict[str, int]:
    names = list(probs)
    p = np.array([probs[x] for x in names], dtype=float)
    p = p / p.sum()
    counts = rng.multinomial(n, p)
    return {x: int(c) for x, c in zip(names, counts) if c > 0}


def _drop_empty(uctx: UnionContext, probs: dict[str, float]) -> dict[str, float]:
    """Zero the selection probability of joins with no results: their
    cover is empty whatever the estimate says, and sampling them fails."""
    return {j: p if uctx.ctx(j).size_exact > 0 else 0.0 for j, p in probs.items()}


def _walk_time_shares(
    stats: SampleStats, walks_before: dict[str, int], dt: float
) -> dict[str, float]:
    """Split ``dt`` seconds of one round's sampling across its joins in
    proportion to the walks each drew since ``walks_before``."""
    walked = {
        j: w - walks_before.get(j, 0) for j, w in stats.walks_by_join.items()
    }
    total = sum(walked.values())
    return {j: dt * w / total for j, w in walked.items() if w} if total else {}


def set_union_sample(
    uctx: UnionContext,
    n: int,
    *,
    warmup: str | WarmupEstimate = "exact",
    sampler: str = "ew",
    variant: str = "cover-retry",
    seed: int = 0,
    max_rounds: int = 200,
) -> UnionSampleResult:
    """Draw ``n`` i.i.d. samples from the set union of ``uctx.joins``."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    est = warmup if isinstance(warmup, WarmupEstimate) else warmup_params(
        uctx, warmup, seed=int(rng.integers(2**31))
    )
    t_warm = time.perf_counter() - t0
    if variant == "lazy":
        res = _lazy_sample(uctx, n, est, sampler, rng, max_rounds)
    else:
        res = _oracle_sample(uctx, n, est, sampler, rng, variant, max_rounds)
    res.timings["warmup"] = t_warm
    return res


def _oracle_sample(
    uctx: UnionContext,
    n: int,
    est: WarmupEstimate,
    sampler: str,
    rng: np.random.Generator,
    variant: str,
    max_rounds: int,
) -> UnionSampleResult:
    names = uctx.names
    jidx_of = {j: i for i, j in enumerate(names)}
    stats = SampleStats()
    if variant == "cover-retry":
        probs = est.cover_probs()
    elif variant == "bernoulli":
        total = sum(est.sizes.values())
        probs = {j: est.sizes[j] / total for j in names}
    elif variant == "literal":
        probs = est.cover_probs()
    else:
        raise ValueError(variant)
    probs = _drop_empty(uctx, probs)

    # Expected accept rate per join (cover mass / join size), to size draws.
    rate = {
        j: min(1.0, max(est.covers.get(j, est.sizes[j]), 1.0) / max(est.sizes[j], 1.0))
        for j in names
    }

    outstanding = _alloc(rng, n, probs)
    accepted: list[pd.DataFrame] = []
    per_join: dict[str, int] = {j: 0 for j in names}
    n_drawn = n_rej = 0
    t_acc = t_rej = 0.0
    rounds = 0
    while outstanding and rounds < max_rounds:
        rounds += 1
        draws = {}
        for j, need in outstanding.items():
            if variant == "cover-retry":
                # over-draw: each slot retries within this join until accept
                draw = int(np.ceil(need / max(rate[j], 0.02) * 1.3)) + 4
            else:
                # bernoulli / literal: one draw per slot, re-select on reject
                draw = need
            draws[uctx.ctx(j)] = min(draw, 50_000)
        walks_before = dict(stats.walks_by_join)
        t0 = time.perf_counter()
        batch = sample_join(
            draws,
            method=sampler,
            seed=int(rng.integers(2**31)),
            stats=stats,
        )
        f = uctx.membership.min_index(batch)
        in_cover = f == batch[JOIN].map(jidx_of).to_numpy()
        shares = _walk_time_shares(stats, walks_before, time.perf_counter() - t0)
        reselect = {}
        for j, need in outstanding.items():
            mine = (batch[JOIN] == j).to_numpy()
            ok = batch[mine & in_cover]
            n_j = int(mine.sum())
            n_drawn += n_j
            n_rej += n_j - len(ok)
            take = min(len(ok), need)
            if take:
                accepted.append(ok.head(take))
                per_join[j] += take
            if n_j:
                t_acc += shares.get(j, 0.0) * take / n_j
                t_rej += shares.get(j, 0.0) * (n_j - take) / n_j
            # Adapt the empirical accept rate for the next round.
            rate[j] = max(0.02, 0.5 * rate[j] + 0.5 * max(len(ok), 1) / max(n_j, 1))
            if variant == "cover-retry":
                outstanding[j] = need - take  # retry within the same join
            else:  # bernoulli / literal: rejected slots re-select a join
                outstanding[j] = 0
                miss = need - take
                if miss > 0:
                    for jj, c in _alloc(rng, miss, probs).items():
                        reselect[jj] = reselect.get(jj, 0) + c
        for jj, c in reselect.items():
            outstanding[jj] = outstanding.get(jj, 0) + c
        outstanding = {j: v for j, v in outstanding.items() if v > 0}
    samples = (
        pd.concat(accepted, ignore_index=True)[uctx.value_cols]
        if accepted
        else pd.DataFrame(columns=uctx.value_cols)
    )
    return UnionSampleResult(
        samples=samples,
        warmup=est,
        n_drawn=n_drawn,
        n_rejected_cover=n_rej,
        timings={"accepted": t_acc, "rejected": t_rej},
        per_join_accepted=per_join,
        stats=stats,
        rounds=rounds,
    )


def _lazy_sample(
    uctx: UnionContext,
    n: int,
    est: WarmupEstimate,
    sampler: str,
    rng: np.random.Generator,
    max_rounds: int,
) -> UnionSampleResult:
    """Algorithm 1 verbatim: orig_join bookkeeping + revision, no oracle."""
    names = uctx.names
    probs = _drop_empty(uctx, est.cover_probs())
    stats = SampleStats()
    orig: dict[tuple, int] = {}
    kept: list[tuple[int, tuple, pd.Series]] = []  # (join idx, value key, row)
    n_drawn = n_rej = 0
    t_acc = t_rej = 0.0
    rounds = 0
    while len(kept) < n and rounds < max_rounds:
        rounds += 1
        alloc = _alloc(rng, n - len(kept), probs)
        walks_before = dict(stats.walks_by_join)
        t0 = time.perf_counter()
        batch = sample_join(
            {uctx.ctx(j): c for j, c in alloc.items()},
            method=sampler,
            seed=int(rng.integers(2**31)),
            stats=stats,
        )
        shares = _walk_time_shares(stats, walks_before, time.perf_counter() - t0)
        n_drawn += len(batch)
        for j in alloc:
            t0 = time.perf_counter()
            rows = batch[batch[JOIN] == j]
            jidx = names.index(j)
            acc_cnt = 0
            for _, row in rows.iterrows():
                key = tuple(row[uctx.value_cols])
                i = orig.get(key)
                if i is not None and i < jidx:
                    n_rej += 1  # line 8: reject
                    continue
                if i is not None and i > jidx:
                    # lines 10–12: revision — reassign and purge old copies
                    kept = [k for k in kept if k[1] != key]
                orig[key] = jidx
                kept.append((jidx, key, row))
                acc_cnt += 1
            dt = shares.get(j, 0.0) + time.perf_counter() - t0
            if len(rows):
                t_acc += dt * acc_cnt / len(rows)
                t_rej += dt * (len(rows) - acc_cnt) / len(rows)
    kept = kept[:n]
    samples = (
        pd.DataFrame([r for _, _, r in kept])[uctx.value_cols].reset_index(drop=True)
        if kept
        else pd.DataFrame(columns=uctx.value_cols)
    )
    per_join = {j: sum(1 for i, _, _ in kept if names[i] == j) for j in names}
    return UnionSampleResult(
        samples=samples,
        warmup=est,
        n_drawn=n_drawn,
        n_rejected_cover=n_rej,
        timings={"accepted": t_acc, "rejected": t_rej},
        per_join_accepted=per_join,
        stats=stats,
        rounds=rounds,
    )


def disjoint_union_sample(
    uctx: UnionContext,
    n: int,
    *,
    sampler: str = "ew",
    sizes: dict[str, float] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Definition 1: select a join ∝ |J_j|, sample it uniformly — no
    rejection, duplicates across joins kept."""
    rng = np.random.default_rng(seed)
    sizes = sizes or {j: float(uctx.ctx(j).size_exact) for j in uctx.names}
    total = sum(sizes.values())
    alloc = _alloc(rng, n, {k: v / total for k, v in sizes.items()})
    batch = sample_join(
        {uctx.ctx(j): c for j, c in alloc.items()},
        method=sampler,
        seed=int(rng.integers(2**31)),
    )
    return batch.drop(columns=[JOIN])
