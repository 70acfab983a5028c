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
Both the walks and the residual join run on the driver, over the
relations' collected frames.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from .join_spec import Join, Relation, inner_join
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

    def full_pdf(self) -> pd.DataFrame:
        """The full cyclic join result, distinct, built on the driver."""
        residual = self.residual.pdf[self.residual.cols]
        df = inner_join(self.skeleton.full_pdf(), residual, self.link_cols, self.link_cols)
        return df[self.value_cols].drop_duplicates(ignore_index=True)


def sample_cyclic(
    spark: SparkSession, cj: CyclicJoin, n: int, *, seed: int = 0
) -> pd.DataFrame:
    """Exactly ``n`` i.i.d. uniform tuples from the cyclic join result."""
    rng = np.random.default_rng(seed)
    m = cj.residual_max_degree()
    residual = cj.residual.pdf[cj.residual.cols]
    out: list[pd.DataFrame] = []
    got = 0
    while got < n:
        batch = max(int((n - got) * 2.0) + 8, 16)
        request = WalkRequest(cj.skeleton, batch, "ew")
        (res,) = run_walks([request], seed=int(rng.integers(2**31))).results
        walks = res.pdf.drop(columns=["__p"])
        walks["__walk"] = np.arange(len(walks))
        cand = inner_join(walks, residual, cj.link_cols, cj.link_cols)
        cand = cand.sort_values("__walk", kind="stable", ignore_index=True)
        # each walk's d matches are one run of rows: pick one uniformly
        first = np.flatnonzero(np.diff(cand["__walk"].to_numpy(), prepend=-1))
        d = np.diff(np.r_[first, len(cand)])
        picked = cand.iloc[first + (rng.random(len(d)) * d).astype(np.int64)]
        keep = rng.random(len(d)) < d / m
        if keep.any():
            out.append(picked[keep][cj.value_cols])
            got += int(keep.sum())
    return pd.concat(out, ignore_index=True).head(n).reset_index(drop=True)


def decompose_triangle(
    name: str, r1: Relation, r2: Relation, cond12: tuple[str, str], r3: Relation
) -> CyclicJoin:
    """Decompose a triangle join R1 ⋈ R2 ⋈ R3 (cycle through shared
    columns) by removing R3: skeleton = R1 ⋈ R2, residual = R3."""
    from .join_spec import chain

    skeleton = chain(f"{name}_skel", [r1, r2], [cond12])
    return CyclicJoin(name, skeleton, r3)
