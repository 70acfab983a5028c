"""UQ2 — three chain joins on the *same* data with overlapping selection
predicates (§9, following the paper's Q2^N ∪ Q2^P ∪ Q2^S recipe).

    region ⋈ nation ⋈ supplier ⋈ partsupp ⋈ part,   σ(p_size ∈ window_i)

Predicates are pushed down to the part relation (§8.3's first
alternative), so the three joins share all relations except their
filtered part copies — a large-overlap workload. The ``overlap``
parameter sets the fraction by which consecutive p_size windows overlap.
"""
from __future__ import annotations

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro import synth_data
from repro.core.join_spec import Relation, chain

from .base import Workload


def uq2(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    overlap: float = 0.6,
    seed: int = 0,
) -> Workload:
    region = Relation("region", synth_data.region(spark))
    nation = Relation("nation", synth_data.nation(spark))
    supplier = Relation("supplier", synth_data.supplier(spark, sf=sf, seed=seed + 6))
    partsupp = Relation("partsupp", synth_data.partsupp(spark, sf=sf, seed=seed + 9))
    part_df = synth_data.part(spark, sf=sf, seed=seed + 5).cache()

    # p_size ∈ [1, 50]; three windows of width 25, consecutive windows
    # overlapping by `overlap` of their width.
    width = 25
    step = max(1, int(round(width * (1 - overlap))))
    windows = [(1 + i * step, min(50, i * step + width)) for i in range(3)]

    joins = []
    for v, (lo, hi) in enumerate(windows):
        part_v = Relation(
            f"part_{v}",
            part_df.filter((F.col("p_size") >= lo) & (F.col("p_size") <= hi)),
        )
        joins.append(
            chain(
                f"uq2_{v}",
                [region, nation, supplier, partsupp, part_v],
                [
                    ("r_regionkey", "n_regionkey"),
                    ("n_nationkey", "s_nationkey"),
                    ("s_suppkey", "ps_suppkey"),
                    ("ps_partkey", "p_partkey"),
                ],
            )
        )
    return Workload(
        "uq2", spark, joins, meta={"sf": sf, "overlap": overlap, "windows": windows}
    )
