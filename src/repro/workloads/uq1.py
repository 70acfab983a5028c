"""UQ1 — five equi-length chain joins over five TPC-H relations (§9).

Each join instance is

    nation ⋈ supplier ⋈ lineitem ⋈ orders ⋈ customer

(nationkey, suppkey, orderkey, custkey edges; the supplier–lineitem edge
replaces the paper's unspecified chain wiring with a 1:n edge so that
every lineitem row produces exactly one output tuple — |J_i| = |lineitem|
and the tier overlap algebra is exact; see DESIGN.md). The overlap scale
P varies the lineitem copies through sharing tiers; the dimension tables
are shared by all five instances.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro import synth_data
from repro.core.join_spec import Relation, chain

from .base import Tier, Workload, default_tiers, tiered_key_variant


def uq1(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    overlap: float = 0.2,
    n_joins: int = 5,
    seed: int = 0,
    tiers: list[Tier] | None = None,
) -> Workload:
    nation = Relation("nation", synth_data.nation(spark))
    supplier = Relation("supplier", synth_data.supplier(spark, sf=sf, seed=seed + 6))
    orders = Relation("orders", synth_data.orders(spark, sf=sf, seed=seed + 1))
    customer = Relation("customer", synth_data.customer(spark, sf=sf, seed=seed + 2))
    li_pdf = synth_data.lineitem(spark, sf=sf, seed=seed).toPandas()
    n_supp = synth_data.n_rows("supplier", sf)
    tiers = tiers if tiers is not None else default_tiers(overlap, n_joins)

    joins = []
    for v in range(n_joins):
        li_v = tiered_key_variant(li_pdf, "l_suppkey", n_supp, tiers, v)
        li = Relation(f"lineitem_{v}", spark.createDataFrame(li_v))
        joins.append(
            chain(
                f"uq1_{v}",
                [nation, supplier, li, orders, customer],
                [
                    ("n_nationkey", "s_nationkey"),
                    ("s_suppkey", "l_suppkey"),
                    ("l_orderkey", "o_orderkey"),
                    ("o_custkey", "c_custkey"),
                ],
            )
        )
    return Workload(
        "uq1",
        spark,
        joins,
        meta={
            "sf": sf,
            "overlap": overlap,
            "tiers": tiers,
            "n_lineitem": len(li_pdf),
        },
    )
