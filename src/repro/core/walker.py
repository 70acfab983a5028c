"""Batched random walks over the join data graph (§6.1, wander join).

One sampling round is ONE Spark job for all joins of a union: a DataFrame
of walk seeds (request id, walk id, start row + pre-drawn uniforms, one
per step), tagged with the join each walk belongs to, is processed by a
``mapInPandas`` sampling operator. Executors hold broadcast copies of each
join's (reduced, EW-weighted) relations, pre-sorted by their join columns,
and advance all walks of one join in a seed batch simultaneously with
vectorized ``searchsorted`` lookups:

* ``ew``      — within the joinable range [lo, hi) of the child relation a
                row is picked ∝ its Exact Weight via the cumulative-weight
                inverse-CDF; the completed walk is *exactly uniform* over
                the join result, p(t) = 1/|J|.
* ``uniform`` — a uniform pick among the d = hi−lo joinable rows (wander
                join); p(t) = 1/|R_root| · Π 1/dᵢ and Π dᵢ are tracked per
                walk for HT estimation and Olken (EO) acceptance.

Dead-ended walks are dropped from the batch and reported in ``n_failed``
(they contribute 0 to HT estimates, as in the paper). Randomness is drawn
on the driver and shipped with the seeds, and each join's output is put
back in walk-id order, so results are deterministic in ``seed`` regardless
of partitioning and Arrow batch size.

This is the "custom sampling operator" realization: relations never pass
through a shuffle and the join is never materialized — the only Spark
aggregations happen once, in the EW weight DP and the statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .join_spec import Join
from .weights import W

P = "__p"
DPROD = "__dprod"
REQ = "__req"  # index of the walk's request in its batch
WALK = "__walk"  # walk id, unique within a batch
START = "__start"


@dataclass
class WalkResult:
    """Completed walks: value columns + ``__p`` (+ ``__dprod`` in uniform
    mode, + any requested ``__h*`` hash columns), plus failure count."""

    pdf: pd.DataFrame
    n_failed: int
    n_walks: int


def _collect(df) -> pd.DataFrame:
    """Cached toPandas of a relation (shared dimension tables are
    collected once even when several joins reference them)."""
    cached = getattr(df, "_repro_pandas", None)
    if cached is None:
        cached = df.toPandas()
        df._repro_pandas = cached
    return cached


def _walk_plan(spark: SparkSession, join: Join) -> dict:
    """Collect, reduce, weight, and pre-sort the join's relations once;
    broadcast to executors. Cached on the Join object — this is the
    one-time "index construction" of the paper's framework (their hash
    tables). The full (Yannakakis) reduction and the EW weight DP run
    vectorized on the collected data; the Spark-aggregation reference
    implementations live in :mod:`repro.core.olken` and
    :mod:`repro.core.weights` and are cross-checked by tests.
    """
    cached = join.__dict__.get("_walk_plan")
    if cached is not None:
        return cached
    nodes = join.nodes()
    edges = list(join.edges())  # (parent Node, Edge), BFS order
    pdfs: dict[int, pd.DataFrame] = {
        id(n): _collect(n.relation.df).drop(columns=[W], errors="ignore")
        for n in nodes
    }
    # --- full reducer: bottom-up then top-down semijoins -----------------
    for parent, e in reversed(edges):
        keys = pdfs[id(e.child)][e.child_col].unique()
        par = pdfs[id(parent)]
        pdfs[id(parent)] = par[par[e.parent_col].isin(keys)]
    for parent, e in edges:
        keys = pdfs[id(parent)][e.parent_col].unique()
        ch = pdfs[id(e.child)]
        pdfs[id(e.child)] = ch[ch[e.child_col].isin(keys)]
    pdfs = {k: v.reset_index(drop=True) for k, v in pdfs.items()}
    # --- EW weight DP (bottom-up): w(t) = Π_child Σ_joinable w(t') -------
    w: dict[int, np.ndarray] = {id(n): np.ones(len(pdfs[id(n)])) for n in nodes}
    for parent, e in reversed(edges):
        ch = pdfs[id(e.child)]
        sums = pd.Series(w[id(e.child)]).groupby(ch[e.child_col]).sum()
        factor = pdfs[id(parent)][e.parent_col].map(sums).fillna(0.0).to_numpy()
        w[id(parent)] = w[id(parent)] * factor
    root_pdf = pdfs[id(join.root)]
    root_w = w[id(join.root)]
    # --- per-edge sorted key arrays + cumulative weights ------------------
    steps = []
    for parent, e in edges:
        child = pdfs[id(e.child)]
        keys = child[e.child_col].to_numpy()
        order = np.argsort(keys, kind="stable")
        child_sorted = child.iloc[order].reset_index(drop=True)
        keys_sorted = keys[order]
        cw = w[id(e.child)][order]
        cumw = np.concatenate([[0.0], np.cumsum(cw)])
        if len(keys_sorted):
            _, counts = np.unique(keys_sorted, return_counts=True)
            max_deg = int(counts.max())
        else:
            max_deg = 0
        steps.append(
            {
                "pcol": e.parent_col,
                "ccol": e.child_col,
                "keys": keys_sorted,
                "cumw": cumw,
                "child": child_sorted,
                "max_deg": max_deg,
                "fake": e.fake,
            }
        )
    plan = {
        "root": root_pdf,
        "root_w": root_w,
        "total_weight": float(root_w.sum()),
        "steps": steps,
        "bc": spark.sparkContext.broadcast({"root": root_pdf, "steps": steps}),
    }
    join.__dict__["_walk_plan"] = plan
    return plan


def _spark_field(join: Join, col: str) -> T.StructField:
    for rel in join.relations():
        for f in rel.df.schema.fields:
            if f.name == col:
                return T.StructField(col, f.dataType)
    raise KeyError(col)


@dataclass
class WalkRequest:
    """``n_walks`` walks over ``join`` in ``mode`` (``"uniform"`` or
    ``"ew"``). EW walks record p(t) = 1/``total_weight`` (default: the
    plan's total weight, i.e. the exact join size)."""

    join: Join
    n_walks: int
    mode: str = "uniform"
    total_weight: float | None = None


@dataclass
class WalkBatch:
    """The results of one walk job, one per request, in request order."""

    results: list[WalkResult]

    @property
    def n_walks(self) -> int:
        return sum(r.n_walks for r in self.results)

    @property
    def n_failed(self) -> int:
        return sum(r.n_failed for r in self.results)


def run_walks(
    spark: SparkSession,
    requests: list[WalkRequest],
    *,
    seed: int = 0,
    hash_specs: dict[tuple[str, ...], str] | None = None,
) -> WalkBatch:
    """Run every request's independent random walks in one Spark job.

    All requested joins share one output schema (their value columns).
    ``hash_specs`` maps sorted column tuples to output aliases; matching
    ``xxhash64`` signature columns are appended in the same job so
    membership probes need no extra Spark round trip. A request for an
    empty join (or an EW request whose total weight is 0) walks nowhere:
    all its walks fail. No job runs when no request has a walk to run.
    """
    rng = np.random.default_rng(seed)
    results = [WalkResult(pd.DataFrame(), r.n_walks, r.n_walks) for r in requests]
    jobs: dict[int, tuple] = {}  # request id -> (plan broadcast, mode), for executors
    ew_p: dict[int, float] = {}  # request id -> the p(t) its EW walks record
    pieces = []
    for k, req in enumerate(requests):
        if req.mode not in ("uniform", "ew"):
            raise ValueError(req.mode)
        plan = _walk_plan(spark, req.join)
        n_root = len(plan["root"])
        if req.n_walks <= 0 or n_root == 0:
            continue
        # --- start selection + pre-drawn randomness (driver side) --------
        if req.mode == "ew":
            tw = plan["total_weight"]
            if tw <= 0:
                continue
            starts = rng.choice(n_root, size=req.n_walks, p=plan["root_w"] / tw)
            ew_p[k] = 1.0 / (req.total_weight if req.total_weight is not None else tw)
        else:
            starts = rng.integers(0, n_root, size=req.n_walks)
        us = rng.random((req.n_walks, len(plan["steps"])))
        u_cols = {f"__u{i}": us[:, i] for i in range(us.shape[1])}
        pieces.append(pd.DataFrame({REQ: k, START: starts, **u_cols}))
        jobs[k] = (plan["bc"], req.mode)
    if not pieces:
        return WalkBatch(results)
    # a join with fewer steps than another leaves its last uniforms unused
    seeds = pd.concat(pieces, ignore_index=True).fillna(0.0)
    seeds.insert(1, WALK, np.arange(len(seeds), dtype=np.int64))

    join = requests[next(iter(jobs))].join
    value_cols = join.value_cols
    out_fields = [_spark_field(join, c) for c in value_cols]
    out_fields += [
        T.StructField(REQ, T.LongType()),
        T.StructField(WALK, T.LongType()),
        T.StructField(P, T.DoubleType()),
        T.StructField(DPROD, T.DoubleType()),
    ]
    out_schema = T.StructType(out_fields)

    # Nested, so that it is pickled by value: Python workers need not be
    # able to import this package.
    def walk(data: dict, seeds: pd.DataFrame, mode: str) -> pd.DataFrame:
        """Advance the walks of ``seeds`` through one join's broadcast plan;
        return the completed ones (value columns, request/walk ids, p, Π d)."""
        n_steps = len(data["steps"])
        frontier = data["root"].iloc[seeds[START].to_numpy()].reset_index(drop=True)
        ids = seeds[[REQ, WALK]].reset_index(drop=True)
        p = np.full(len(frontier), 1.0 / len(data["root"]))
        dprod = np.ones(len(frontier))
        us = [seeds[f"__u{i}"].to_numpy() for i in range(n_steps)]
        for i, step in enumerate(data["steps"]):
            keyvals = frontier[step["pcol"]].to_numpy()
            lo = np.searchsorted(step["keys"], keyvals, side="left")
            hi = np.searchsorted(step["keys"], keyvals, side="right")
            alive = hi > lo
            if mode == "ew":
                # a range whose weights are all zero is a dead end too
                cw = step["cumw"]
                alive &= cw[hi] > cw[lo]
            if not alive.all():
                frontier = frontier[alive].reset_index(drop=True)
                ids = ids[alive].reset_index(drop=True)
                p, dprod = p[alive], dprod[alive]
                lo, hi = lo[alive], hi[alive]
                us = [u[alive] for u in us]
            if not len(frontier):
                break
            u = us[i]
            if mode == "ew":
                cw = step["cumw"]
                target = cw[lo] + u * (cw[hi] - cw[lo])
                idx = np.searchsorted(cw, target, side="right") - 1
                idx = np.clip(idx, lo, hi - 1)
            else:
                d = hi - lo
                idx = lo + np.minimum((u * d).astype(np.int64), d - 1)
                p = p / d
                dprod = dprod * d
            child_rows = step["child"].iloc[idx].reset_index(drop=True)
            keep = [c for c in child_rows.columns if c not in frontier.columns]
            frontier = pd.concat([frontier, child_rows[keep]], axis=1)
        out = frontier[value_cols].copy()
        out[REQ] = ids[REQ].to_numpy()
        out[WALK] = ids[WALK].to_numpy()
        out[P] = p
        out[DPROD] = dprod
        return out

    def walk_partition(batches):
        for pdf in batches:
            for k, part in pdf.groupby(REQ, sort=False):
                bc, mode = jobs[k]
                out = walk(bc.value, part, mode)
                if len(out):
                    yield out

    # Seeds are built with defaultParallelism slices; coalescing them to
    # n_parts tasks (no shuffle) keeps small batches in one Python task.
    n_parts = max(1, min(int(spark.sparkContext.defaultParallelism), len(seeds) // 500))
    walked = spark.createDataFrame(seeds).coalesce(n_parts).mapInPandas(
        walk_partition, schema=out_schema
    )
    sel = list(walked.columns)
    if hash_specs:
        for cols, alias in hash_specs.items():
            sel.append(
                F.xxhash64(*[F.col(c).cast("string") for c in sorted(cols)]).alias(alias)
            )
    pdf = walked.select(*sel).toPandas()
    for k, part in pdf.groupby(REQ, sort=False):
        part = part.sort_values(WALK).drop(columns=[REQ, WALK]).reset_index(drop=True)
        if k in ew_p:
            part[P] = ew_p[k]
            part = part.drop(columns=[DPROD])
        n = requests[k].n_walks
        results[k] = WalkResult(part, n - len(part), n)
    return WalkBatch(results)


def ht_estimate(result: WalkResult) -> float:
    """Horvitz–Thompson join-size estimate: mean over all walks of 1/p(t),
    dead-ended walks counting 0 (§6.1)."""
    if result.n_walks == 0:
        return 0.0
    inv = (1.0 / result.pdf[P]).sum() if len(result.pdf) else 0.0
    return float(inv) / result.n_walks


def ht_running_stats(inv_p: np.ndarray, n_total: int) -> tuple[float, float]:
    """(mean, variance) of the HT estimator terms f(i) = 1/p(t_i) (0 for
    failures) — the T_n(u), T_{n,2}(u) of §6.2 / Li et al."""
    if n_total == 0:
        return 0.0, 0.0
    padded = np.zeros(n_total)
    padded[: len(inv_p)] = inv_p
    mean = float(padded.mean())
    var = float(padded.var(ddof=1)) if n_total > 1 else 0.0
    return mean, var
