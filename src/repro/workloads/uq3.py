"""UQ3 — one acyclic (non-chain) join plus two chain joins over supplier,
customer, and orders, with vertically and horizontally split relations
(§9), exercising the splitting/template machinery end-to-end.

All three joins produce the same output schema:

* J0 (acyclic): customer_a at the root with THREE children — supplier
  (c_nationkey = s_nationkey), customer_b (USING c_custkey, the vertical
  split rejoin), orders (c_custkey = o_custkey);
* J1 (chain):   supplier ⋈ customer ⋈ orders, customer unsplit;
* J2 (chain):   supplier ⋈ customer_a ⋈ customer_b ⋈ orders.

Overlap across instances comes from *horizontal* splits of orders: each
instance sees a contiguous window of the order rows, consecutive windows
overlapping by the ``overlap`` fraction of their width — the paper's
"split horizontally" recipe. Row-subset overlap is visible to degree
histograms (unlike payload perturbation), which is what lets the
HISTOGRAM-BASED method differentiate the joins, matching the paper's
observation that UQ3 estimates are comparatively accurate. The supplier
relation is thinned to ~2 suppliers per nation so the m:n nationkey edge
stays laptop-scale (a documented substitution; the join topology is
unchanged).
"""
from __future__ import annotations

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro import synth_data
from repro.core.join_spec import Edge, Join, Node, Relation, chain

from .base import Workload

N_SUPPLIERS = 50  # ≈ 2 per nation


def order_windows(n: int, overlap: float, k: int = 3) -> list[tuple[int, int]]:
    """k contiguous windows over [0, n), consecutive windows overlapping by
    ``overlap`` of their width, exactly tiling the table."""
    w = int(n / (k - (k - 1) * overlap))
    step = int(round(w * (1 - overlap)))
    return [(v * step, min(v * step + w, n)) for v in range(k)]


def uq3(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    overlap: float = 0.2,
    seed: int = 0,
) -> Workload:
    supplier = Relation(
        "supplier",
        synth_data.supplier(spark, sf=sf, seed=seed + 6)
        .filter(F.col("s_suppkey") <= N_SUPPLIERS),
    )
    cust_df = synth_data.customer(spark, sf=sf, seed=seed + 2).cache()
    customer = Relation("customer", cust_df)
    customer_a = Relation("customer_a", cust_df.select("c_custkey", "c_nationkey"))
    customer_b = Relation(
        "customer_b", cust_df.select("c_custkey", "c_acctbal", "c_mktsegment")
    )
    orders_pdf = synth_data.orders(spark, sf=sf, seed=seed + 1).toPandas()
    windows = order_windows(len(orders_pdf), overlap)

    def orders_rel(v: int) -> Relation:
        lo, hi = windows[v]
        pdf = orders_pdf.iloc[lo:hi].reset_index(drop=True)
        return Relation(f"orders_{v}", spark.createDataFrame(pdf))

    # J0: genuinely acyclic, non-chain (root with three children).
    o0 = orders_rel(0)
    root = Node(customer_a)
    root.edges.append(Edge("c_nationkey", "s_nationkey", Node(supplier)))
    root.edges.append(Edge("c_custkey", "c_custkey", Node(customer_b)))
    root.edges.append(Edge("c_custkey", "o_custkey", Node(o0)))
    j0 = Join("uq3_0", root)

    # J1: plain chain with the unsplit customer.
    j1 = chain(
        "uq3_1",
        [supplier, customer, orders_rel(1)],
        [("s_nationkey", "c_nationkey"), ("c_custkey", "o_custkey")],
    )

    # J2: chain through the vertical split (the USING rejoin is 1:1).
    j2 = chain(
        "uq3_2",
        [supplier, customer_a, customer_b, orders_rel(2)],
        [
            ("s_nationkey", "c_nationkey"),
            ("c_custkey", "c_custkey"),
            ("c_custkey", "o_custkey"),
        ],
        fakes=[False, True, False],
    )
    return Workload(
        "uq3",
        spark,
        [j0, j1, j2],
        meta={
            "sf": sf,
            "overlap": overlap,
            "windows": windows,
            "n_orders": len(orders_pdf),
        },
    )
