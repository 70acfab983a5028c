"""RANDOM-WALK instantiation of the warm-up phase (§6).

Per join: wander-join random walks give (a) a Horvitz–Thompson join-size
estimate |J|_S = mean of 1/p(t) (failures count 0), updated online, and
(b) a pool of sampled tuples with recorded probabilities. Overlap of a set
Δ is estimated from the pool of the first join in Δ (Eq. 2):

    |O_Δ| = |J_j| · ( Σ_{t∈S_j, t ∈ every J_i∈Δ} 1/p(t) ) / ( Σ_{t∈S_j} 1/p(t) )

where the 1/p weighting realizes the paper's S'_j multiset ("contains
exactly 1/p(t) copies of t") without materializing it. Membership of pool
tuples in other joins is probed in batches against the union's
MembershipIndex (§6.2's key queries). Sampling stops per join when the CI
half-width of every overlap ratio is below the target or the pool reaches
``max_samples`` (the paper stops at 90% confidence or 1,000 samples). The
joins not yet stopped walk round-robin, one walk batch per round for all
of them.

The pools and probabilities are returned so ONLINE-UNION (§7) can reuse
them during the main sampling phase.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import pandas as pd

from .histogram_union import WarmupEstimate, build_estimate
from .join_sampler import UnionContext, wander_walks
from .walker import P


@dataclass
class RWState:
    """Per-join pools of wander-join samples, for reuse in ONLINE-UNION."""

    pools: dict[str, pd.DataFrame] = field(default_factory=dict)  # value cols + __p
    n_failed: dict[str, int] = field(default_factory=dict)
    member: dict[str, np.ndarray] = field(default_factory=dict)  # pool × joins bools

    def inv_p(self, name: str) -> np.ndarray:
        pool = self.pools[name]
        return (1.0 / pool[P]).to_numpy() if len(pool) else np.zeros(0)

    def ht_size(self, name: str) -> float:
        n_total = len(self.pools[name]) + self.n_failed[name]
        if n_total == 0:
            return 0.0
        return float(self.inv_p(name).sum()) / n_total

    def ht_var(self, name: str) -> float:
        """Variance of the HT terms f(i) = 1/p (0 for failures) — the
        T_{n,2}(u) of §6.2."""
        n_total = len(self.pools[name]) + self.n_failed[name]
        if n_total <= 1:
            return 0.0
        terms = np.zeros(n_total)
        inv = self.inv_p(name)
        terms[: len(inv)] = inv
        return float(terms.var(ddof=1))


def overlap_ratio(state: RWState, names: list[str], delta: frozenset) -> float:
    """HT-weighted fraction of the anchor join's pool inside every join of
    Δ (the |∩S'_i| / |S'_j| of Eq. 2)."""
    anchor = min(delta, key=names.index)
    pool = state.pools[anchor]
    if not len(pool):
        return 0.0
    inv = state.inv_p(anchor)
    mem = state.member[anchor]
    idx = [names.index(d) for d in delta]
    in_all = mem[:, idx].all(axis=1)
    denom = inv.sum()
    return float(inv[in_all].sum() / denom) if denom > 0 else 0.0


def overlap_ci_halfwidth(
    state: RWState, names: list[str], delta: frozenset, z: float = 1.645
) -> float:
    """CI half-width for |O_Δ| following §6.2 (product of the HT size and
    a binomial ratio; delta-method combination of their variances)."""
    anchor = min(delta, key=names.index)
    n = len(state.pools[anchor]) + state.n_failed[anchor]
    if n <= 1:
        return float("inf")
    p_hat = overlap_ratio(state, names, delta)
    t_n = state.ht_size(anchor)
    t_n2 = state.ht_var(anchor)
    var = t_n2 * p_hat * (1 - p_hat) + t_n2 * p_hat**2 + (t_n**2) * p_hat * (1 - p_hat)
    return z * float(np.sqrt(var / n))


def randomwalk_warmup(
    uctx: UnionContext,
    *,
    batch: int = 200,
    max_samples: int = 1000,
    rel_halfwidth: float = 0.1,
    z: float = 1.645,
    seed: int = 0,
    state: RWState | None = None,
) -> tuple[WarmupEstimate, RWState]:
    """Run wander-join warm-up for every join; return the parameter
    estimate and the reusable sample pools."""
    rng = np.random.default_rng(seed)
    names = uctx.names
    state = state or RWState()
    for name in names:
        if name not in state.pools:
            state.pools[name] = pd.DataFrame()
            state.n_failed[name] = 0
            state.member[name] = np.zeros((0, len(names)), dtype=bool)

    def more(name: str) -> bool:
        return len(state.pools[name]) + state.n_failed[name] < max_samples

    def converged(name: str) -> bool:
        """Every overlap anchored at ``name`` is within the CI target."""
        est = state.ht_size(name)
        if est <= 0:
            return False
        anchored = [
            frozenset(d)
            for k in range(2, len(names) + 1)
            for d in combinations(names, k)
            if min(d, key=names.index) == name
        ]
        hw = max(
            (overlap_ci_halfwidth(state, names, d, z=z) for d in anchored),
            default=0.0,
        )
        return hw <= rel_halfwidth * est

    # Round-robin: each round walks every join not yet stopped, in one batch.
    active = [name for name in names if more(name)]
    while active:
        walks = wander_walks(
            [uctx.ctx(name) for name in active], batch, seed=int(rng.integers(2**31))
        )
        for name, res in zip(active, walks.results):
            state.n_failed[name] += res.n_failed
            if len(res.pdf):
                mem = uctx.membership.matrix(res.pdf)
                state.member[name] = np.vstack([state.member[name], mem])
                state.pools[name] = pd.concat(
                    [state.pools[name], res.pdf], ignore_index=True
                )
        active = [name for name in active if more(name) and not converged(name)]
    return estimate_from_state(uctx, state), state


def estimate_from_state(uctx: UnionContext, state: RWState) -> WarmupEstimate:
    """Assemble the WarmupEstimate from the current pools (§6 + Thm 3).

    Called once at warm-up and again at every ONLINE-UNION backtracking
    step as pools grow."""
    names = uctx.names
    sizes = {n: state.ht_size(n) for n in names}
    overlaps = {}
    for k in range(2, len(names) + 1):
        for d in combinations(names, k):
            delta = frozenset(d)
            anchor = min(delta, key=names.index)
            overlaps[delta] = sizes[anchor] * overlap_ratio(state, names, delta)
    return build_estimate("rw", names, sizes, overlaps)
