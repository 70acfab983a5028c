"""FullJoinUnion ground truth (the paper's expensive baseline, Fig 4c/d).

Materializes every join, unions them, and derives — in ONE Spark pass over
the unioned result — the *atom counts*: for each distinct output tuple, the
exact set of joins containing it. All exact sizes, overlaps |O_Δ|,
k-overlaps A_j^k, |U| and cover sizes follow from the atoms by counting.

This is the only module allowed to materialize joins; estimators and
samplers never call it.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from .join_spec import Join
from .koverlap import exact_stats_from_atoms, overlap_fn_from_atoms

MAX_JOINS = 62  # membership masks are bits of a signed 64-bit long


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


def full_join_union(spark: SparkSession, joins: list[Join]) -> ExactUnion:
    """Materialize all joins and compute atom counts.

    Each join's result is tagged with its bit ``1 << i``; the union is
    grouped by the full tuple value with a ``bit_or`` of the tags (the
    tuple's membership mask, which also removes duplicates), then by the
    mask itself, yielding one small row per membership combination.
    """
    if len(joins) > MAX_JOINS:
        raise ValueError(f"FullJoinUnion supports up to {MAX_JOINS} joins")
    names = [j.name for j in joins]
    tagged = None
    for i, join in enumerate(joins):
        df = join.full_df(distinct=False).withColumn("__bit", F.lit(1 << i).cast("long"))
        tagged = df if tagged is None else tagged.unionByName(df)
    value_cols = joins[0].value_cols
    combos = (
        tagged.groupBy(*value_cols)
        .agg(F.bit_or("__bit").alias("__mask"))
        .groupBy("__mask")
        .agg(F.count(F.lit(1)).alias("__cnt"))
        .collect()
    )
    atoms = {
        frozenset(n for i, n in enumerate(names) if row["__mask"] >> i & 1): int(row["__cnt"])
        for row in combos
    }
    return ExactUnion(names=names, atoms=atoms)


def union_tuples(spark: SparkSession, joins: list[Join]):
    """The distinct set-union result itself (for sampler uniformity tests)."""
    out = None
    for join in joins:
        df = join.full_df(distinct=True)
        out = df if out is None else out.unionByName(df)
    return out.dropDuplicates()
