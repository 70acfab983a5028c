"""HISTOGRAM-BASED instantiation of the warm-up phase (§4–§5, Theorem 4).

Overlap of a set Δ of aligned chain joins is bounded stage-by-stage:

    K(1) = Σ_v min_{J_j∈Δ} pairs_j(v)          (pairs from value histograms)
    K(i) = K(i-1) · min_{J_j∈Δ} M_{j,i}        (max degree; 1 for fake joins)
    |O_Δ| ≤ K(n-1), additionally capped by min_{J_j∈Δ} |J_j|.

Joins of unequal shape are first aligned by the splitting method
(:mod:`repro.splitting`), which yields the same ``ChainStatsView``
interface consumed here. Every statistic is read from the per-column
degree histograms of the base relations (:mod:`repro.core.stats`), built
once per relation on the driver — no join is materialized and no Spark
job runs (the paper's "decentralized / data market" setting, with the
histograms a DBMS keeps).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import pandas as pd

from .join_sampler import UnionContext
from .join_spec import Join
from .koverlap import cover_sizes, k_overlaps, union_size
from .stats import avg_degree, max_degree, pair_degree_product, self_degree


@dataclass
class ChainStatsView:
    """Per-join statistics provider for Theorem 4's stage recursion.

    ``first_pair`` returns ``pairs`` indexed by value v — the per-value
    count of joinable (t1, t2) pairs of the first two stage relations;
    ``ms[i]`` returns the stage-(i+2) multiplier M_{j,i} (max or avg
    degree; 1 for fake joins). Values are computed lazily and cached: the
    warm-up evaluates every Δ in the powerset and reuses per-join
    statistics, and the Σ-min over the powerset aligns the column-sized
    histograms.
    """

    name: str
    first_pair: Callable[[], pd.Series]
    ms: list[Callable[[], float]]
    _pair_cache: "pd.Series | None" = field(default=None, repr=False)
    _m_cache: dict[int, float] = field(default_factory=dict, repr=False)

    def pair_series(self) -> "pd.Series":
        """pairs indexed by value v, as floats (computed once)."""
        if self._pair_cache is None:
            self._pair_cache = self.first_pair().astype(float)
        return self._pair_cache

    def m(self, i: int) -> float:
        if i not in self._m_cache:
            self._m_cache[i] = float(self.ms[i]())
        return self._m_cache[i]


def chain_view(join: Join, *, refine: str = "max") -> ChainStatsView:
    """Statistics view of a plain chain join (equi-length case, §5.1).

    ``refine='avg'`` uses average instead of max degrees for stages ≥ 2 —
    the paper's "if histograms are available for all join attributes"
    refinement (tighter but no longer a guaranteed upper bound).
    """
    rels, edges = join.as_chain()
    e0 = edges[0]
    if e0.fake:
        first = lambda: self_degree(rels[0], e0.parent_col)  # noqa: E731
    else:
        first = lambda: pair_degree_product(  # noqa: E731
            rels[0], e0.parent_col, rels[1], e0.child_col
        )
    deg = max_degree if refine == "max" else avg_degree

    def make_m(edge, rel):
        if edge.fake:
            return lambda: 1.0
        return lambda: float(deg(rel, edge.child_col))

    ms = [make_m(e, rels[i + 2]) for i, e in enumerate(edges[1:])]
    return ChainStatsView(join.name, first, ms)


def overlap_bound(views: list[ChainStatsView]) -> float:
    """Theorem 4's K(n-1) for the joins in ``views`` (all same length)."""
    n_stages = {len(v.ms) for v in views}
    if len(n_stages) != 1:
        raise ValueError("views must be aligned to the same number of stages")
    # K(1) = Σ_v min_j pairs_j(v): inner alignment of the collected
    # per-value histograms (values missing from any join contribute 0).
    merged = pd.concat([v.pair_series() for v in views], axis=1, join="inner")
    k = float(merged.min(axis=1).sum()) if len(merged) else 0.0
    for i in range(n_stages.pop()):
        k *= min(v.m(i) for v in views)
    return k


@dataclass
class WarmupEstimate:
    """Everything Algorithm 1 needs from the warm-up phase."""

    method: str
    names: list[str]
    sizes: dict[str, float]
    overlaps: dict[frozenset, float]
    a_jk: dict[tuple[str, int], float]
    union: float
    covers: dict[str, float]

    @property
    def ratios(self) -> dict[str, float]:
        """Estimated |J_j| / |U| — the error metric of Fig 4a/4b/5a."""
        return {j: s / self.union for j, s in self.sizes.items()}

    def cover_probs(self) -> dict[str, float]:
        total = sum(self.covers.values())
        if total <= 0:  # degenerate estimate; fall back to size-proportional
            total = sum(self.sizes.values())
            return {j: self.sizes[j] / total for j in self.names}
        return {j: self.covers[j] / total for j in self.names}


def build_estimate(
    method: str,
    names: list[str],
    sizes: dict[str, float],
    overlaps: dict[frozenset, float],
) -> WarmupEstimate:
    """Assemble a WarmupEstimate from sizes and |Δ|≥2 overlaps via the
    Theorem 3 algebra, with consistency clamps for estimated inputs."""

    def overlap_fn(delta: frozenset) -> float:
        if len(delta) == 1:
            return sizes[next(iter(delta))]
        cap = min(sizes[j] for j in delta)
        return min(overlaps[delta], cap)

    a = k_overlaps(names, overlap_fn)
    u = union_size(names, a)
    # |U| is always within [max_j |J_j|, Σ_j |J_j|]; bound estimates can
    # stray outside, so clamp (keeps ratio errors finite and sane).
    u = min(max(u, max(sizes.values())), sum(sizes.values()))
    covers = cover_sizes(names, overlap_fn)
    return WarmupEstimate(method, names, dict(sizes), dict(overlaps), a, u, covers)


def histogram_warmup(
    uctx: UnionContext,
    *,
    size_method: str = "eo",
    refine: str = "max",
    views: list[ChainStatsView] | None = None,
    view_sets: list[list[ChainStatsView]] | None = None,
) -> WarmupEstimate:
    """HISTOGRAM-BASED warm-up: Olken (EO) or exact (EW) join sizes plus
    Theorem 4 overlap bounds for every subset of joins.

    ``views`` (one aligned set) or ``view_sets`` (several — e.g. one per
    candidate template from the splitting method) may be supplied for
    non-chain or unequal-length joins; every set gives a sound bound, so
    the overlap estimate is the minimum across sets. Plain equi-length
    chains are handled directly.
    """
    names = uctx.names
    if view_sets is None:
        if views is None:
            views = [chain_view(j, refine=refine) for j in uctx.joins]
        view_sets = [views]
    sets_by_name = [{v.name: v for v in vs} for vs in view_sets]
    sizes = {
        n: float(
            uctx.ctx(n).size_olken if size_method == "eo" else uctx.ctx(n).size_exact
        )
        for n in names
    }
    overlaps: dict[frozenset, float] = {}
    for k in range(2, len(names) + 1):
        for delta in combinations(names, k):
            overlaps[frozenset(delta)] = min(
                overlap_bound([by_name[d] for d in delta])
                for by_name in sets_by_name
            )
    return build_estimate(f"hist-{size_method}", names, sizes, overlaps)


def auto_histogram_warmup(uctx: UnionContext, *, size_method: str = "eo") -> WarmupEstimate:
    """Dispatch: equi-length chain unions use §5.1 directly; anything else
    (acyclic joins, unequal lengths) goes through the splitting method
    with candidate templates and the §5.1 average-degree refinement
    (full histograms being available in the centralized setting)."""
    joins = uctx.joins
    if all(j.is_chain() for j in joins) and len(
        {len(j.relations()) for j in joins}
    ) == 1:
        return histogram_warmup(uctx, size_method=size_method)
    from repro.splitting.split import split_view_sets  # local: avoids cycle

    return histogram_warmup(
        uctx, size_method=size_method, view_sets=split_view_sets(joins, refine="avg")
    )
