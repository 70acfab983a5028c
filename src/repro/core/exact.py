"""FullJoinUnion ground truth (the paper's expensive baseline, Fig 4c/d).

Materializes every join on the driver from its relations' frames
(:meth:`Join.full_pdf <repro.core.join_spec.Join.full_pdf>`, no Spark job),
unions them, and derives in one grouping pass the *atom counts*: for each
distinct output tuple, the exact set of joins containing it. All exact
sizes, overlaps |O_Δ|, k-overlaps A_j^k, |U| and cover sizes follow from
the atoms by counting.

This is the only module allowed to materialize joins; estimators and
samplers never call it.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from .join_spec import Join
from .koverlap import exact_stats_from_atoms, overlap_fn_from_atoms

MAX_JOINS = 62  # membership masks are bits of a signed 64-bit long
BIT = "__bit"


@dataclass
class ExactUnion:
    """Exact union statistics, derived from atom counts."""

    names: list[str]
    atoms: dict[frozenset, int]

    @property
    def union(self) -> int:
        return sum(self.atoms.values())

    @property
    def sizes(self) -> dict[str, int]:
        return {
            j: sum(c for s, c in self.atoms.items() if j in s) for j in self.names
        }

    def overlap(self, delta: frozenset) -> int:
        return int(sum(c for s, c in self.atoms.items() if delta <= s))

    @property
    def overlap_fn(self):
        return overlap_fn_from_atoms(self.atoms)

    @property
    def stats(self) -> dict:
        return exact_stats_from_atoms(self.names, self.atoms)

    def ratios(self) -> dict[str, float]:
        """|J_j| / |U| for every join — the quantity Fig 4a/4b/5a evaluate."""
        u = self.union
        return {j: s / u for j, s in self.sizes.items()}


def full_join_union(spark, joins: list[Join]) -> ExactUnion:
    """Materialize all joins and compute atom counts.

    ``spark`` is unused: every join is built on the driver. It stays
    because the benchmark's FullJoinUnion operation passes it.

    Each join's distinct result is tagged with its bit ``1 << i``; the
    union is grouped by the full tuple value (nulls group together, as in
    ``GROUP BY``) with the sum of the tags — the tuple's membership mask —
    and the masks are counted, one count per membership combination.
    """
    if len(joins) > MAX_JOINS:
        raise ValueError(f"FullJoinUnion supports up to {MAX_JOINS} joins")
    names = [j.name for j in joins]
    value_cols = joins[0].value_cols
    tagged = pd.concat(
        [j.full_pdf()[value_cols].assign(**{BIT: 1 << i}) for i, j in enumerate(joins)],
        ignore_index=True,
    )
    masks = tagged.groupby(value_cols, dropna=False, sort=False)[BIT].sum()
    atoms = {
        frozenset(n for i, n in enumerate(names) if mask >> i & 1): int(cnt)
        for mask, cnt in masks.value_counts().items()
    }
    return ExactUnion(names=names, atoms=atoms)


def union_tuples(joins: list[Join]) -> pd.DataFrame:
    """The distinct set-union result itself (for sampler uniformity tests)."""
    union = pd.concat([j.full_pdf() for j in joins], ignore_index=True)
    return union.drop_duplicates(ignore_index=True)
