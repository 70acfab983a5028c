"""Overlap-controlled relation variants (the paper's "overlap scale P%").

The paper keeps P% of the data identical across the relations of
different queries, making the overlap of the join results *proportional*
to P. We realize this with *sharing tiers*: each row of the varied fact
table belongs to a tier ``(fraction, member set of join instances)``.
Member instances see the row unchanged; every non-member instance sees a
deterministically re-keyed copy (the foreign key is shifted within its
valid range, so the row joins a *different* dimension tuple and therefore
yields a *different* output tuple).

Consequences (used heavily by tests): a row in tier t yields the same
output tuple exactly for the instances in t's member set, so

    |O_Δ| = |J| · Σ_{tiers t : Δ ⊆ members(t)} fraction(t)

holds analytically whenever every fact row produces exactly one output
tuple (true for UQ1/UQ2 by construction).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from repro.core.join_sampler import UnionContext
from repro.core.join_spec import Join


@dataclass(frozen=True)
class Tier:
    frac: float
    members: frozenset[int]


def default_tiers(overlap: float, n_instances: int) -> list[Tier]:
    """The tier layout used by UQ1: fraction P shared by everyone, ~P/2 by
    the first three instances, ~P/3 by the first two, rest private. For
    large P the secondary tiers are scaled into the remaining (1−P) mass
    so the fractions always sum to ≤ 1."""
    tiers = [Tier(overlap, frozenset(range(n_instances)))]
    want = []
    if n_instances >= 3:
        want.append((overlap / 2, frozenset({0, 1, 2})))
    if n_instances >= 2:
        want.append((overlap / 3, frozenset({0, 1})))
    total = sum(f for f, _ in want)
    scale = min(1.0, (1.0 - overlap) / total) if total > 0 else 0.0
    tiers += [Tier(f * scale, m) for f, m in want]
    return tiers


def tiered_key_variant(
    pdf: pd.DataFrame,
    key_col: str,
    n_keys: int,
    tiers: list[Tier],
    instance: int,
) -> pd.DataFrame:
    """Instance ``instance``'s copy of the fact table under ``tiers``.

    Rows are assigned to tiers by position (deterministic); a non-member
    instance's rows get key shift 1+instance (distinct from the members'
    shift 0 and from every other instance), private rows likewise.
    Requires n_keys > 1 + max instance id so shifts stay distinct mod n.
    """
    if n_keys <= 1 + instance:
        raise ValueError("key domain too small for distinct per-instance shifts")
    if sum(t.frac for t in tiers) > 1.0 + 1e-9:
        raise ValueError("tier fractions exceed 1")
    out = pdf.copy()
    n = len(pdf)
    keys = out[key_col].to_numpy().copy()
    start = 0
    bounds = []
    for t in tiers:
        end = start + int(round(t.frac * n))
        bounds.append((start, min(end, n), t))
        start = min(end, n)
    for s, e, t in bounds:
        if instance not in t.members and e > s:
            keys[s:e] = ((keys[s:e] - 1 + 1 + instance) % n_keys) + 1
    # private remainder: always instance-specific
    if start < n:
        keys[start:n] = ((keys[start:n] - 1 + 1 + instance) % n_keys) + 1
    out[key_col] = keys
    return out


def expected_overlap_fraction(tiers: list[Tier], delta: frozenset[int]) -> float:
    """Σ of fractions of tiers whose member set covers Δ (singletons get
    the full join: every row is in its own instance)."""
    if len(delta) == 1:
        return 1.0
    return sum(t.frac for t in tiers if delta <= t.members)


@dataclass
class Workload:
    """A union-of-joins workload: joins + their UnionContext + metadata.

    ``spark`` is the session the workload was built with (``None`` outside
    the benchmark). Nothing in the package reads it; the benchmark passes
    it on to ``full_join_union``."""

    name: str
    spark: object
    joins: list[Join]
    meta: dict = field(default_factory=dict)
    _uctx: UnionContext | None = None

    @property
    def uctx(self) -> UnionContext:
        if self._uctx is None:
            self._uctx = UnionContext(self.joins)
        return self._uctx
