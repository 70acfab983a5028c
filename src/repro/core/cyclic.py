"""Cyclic joins via skeleton/residual decomposition (§8.2, after Zhao et al.).

Cycles in the join hyper-graph are broken by removing a subset of
relations; the remainder (the *skeleton*) must form a join tree, and the
removed relations form the *residual* S_R, which is materialized as a
single relation (the paper: "we can even materialize S_R by performing
joins in S_R"). Because all joins share one output schema, the residual
re-attaches to the skeleton simply on its shared column names.

Uniform sampling: draw a skeleton tuple exactly uniformly (EW), join it
with the residual, pick one of its d matches uniformly and accept with
d / M(S_R), where M(S_R) is the residual's maximum degree on the link
columns — every full result then has probability 1/(|J_skel| · M(S_R)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from .join_spec import Join, Relation
from .walker import WalkRequest, _walk_plan, run_walks


@dataclass
class CyclicJoin:
    """A cyclic join decomposed into an acyclic skeleton plus a residual."""

    name: str
    skeleton: Join
    residual: Relation

    @property
    def link_cols(self) -> list[str]:
        """Columns joining the residual back to the skeleton output."""
        skel_cols = set(self.skeleton.value_cols)
        return [c for c in self.residual.cols if c in skel_cols]

    @property
    def value_cols(self) -> list[str]:
        out = list(self.skeleton.value_cols)
        out += [c for c in self.residual.cols if c not in out]
        return out

    def residual_max_degree(self) -> int:
        """M(S_R): max multiplicity of the residual on the link columns
        (nulls group together, as in SQL ``GROUP BY``)."""
        pdf = self.residual.pdf
        if not len(pdf):
            return 0
        return int(pdf.groupby(self.link_cols, dropna=False).size().max())

    def size_bound(self) -> int:
        """|J| ≤ |J_skeleton| · M(S_R) — the cyclic Olken-style bound, with
        the skeleton's exact size from its walk plan."""
        skeleton_size = int(round(_walk_plan(self.skeleton).total_weight))
        return skeleton_size * self.residual_max_degree()

    def full_df(self, distinct: bool = True) -> DataFrame:
        df = self.skeleton.full_df(distinct=False).join(
            self.residual.df, on=self.link_cols, how="inner"
        )
        df = df.select(*self.value_cols)
        return df.dropDuplicates() if distinct else df


def sample_cyclic(
    spark: SparkSession, cj: CyclicJoin, n: int, *, seed: int = 0
) -> pd.DataFrame:
    """Exactly ``n`` i.i.d. uniform tuples from the cyclic join result."""
    rng = np.random.default_rng(seed)
    m = cj.residual_max_degree()
    out: list[pd.DataFrame] = []
    got = 0
    while got < n:
        batch = max(int((n - got) * 2.0) + 8, 16)
        request = WalkRequest(cj.skeleton, batch, "ew")
        (res,) = run_walks([request], seed=int(rng.integers(2**31))).results
        pdf = res.pdf.drop(columns=["__p"])
        pdf["__walk"] = np.arange(len(pdf))
        cand = spark.createDataFrame(pdf).join(
            cj.residual.df, on=cj.link_cols, how="inner"
        )
        wpart = Window.partitionBy("__walk")
        cand = cand.withColumn("__u", F.rand(seed=int(rng.integers(2**31))))
        cand = cand.withColumn("__d", F.count(F.lit(1)).over(wpart))
        cand = cand.withColumn("__rn", F.row_number().over(wpart.orderBy("__u")))
        picked = (
            cand.filter(F.col("__rn") == 1)
            .select(*cj.value_cols, "__d")
            .toPandas()
        )
        if len(picked):
            keep = rng.random(len(picked)) < picked["__d"].to_numpy(dtype=float) / m
            picked = picked[keep].drop(columns=["__d"])
            if len(picked):
                out.append(picked)
                got += len(picked)
    return pd.concat(out, ignore_index=True).head(n).reset_index(drop=True)


def decompose_triangle(
    name: str, r1: Relation, r2: Relation, cond12: tuple[str, str], r3: Relation
) -> CyclicJoin:
    """Decompose a triangle join R1 ⋈ R2 ⋈ R3 (cycle through shared
    columns) by removing R3: skeleton = R1 ⋈ R2, residual = R3."""
    from .join_spec import chain

    skeleton = chain(f"{name}_skel", [r1, r2], [cond12])
    return CyclicJoin(name, skeleton, r3)
