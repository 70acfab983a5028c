"""Harness functions, one per evaluation table (T1–T8 of DESIGN.md §4).

Each returns a list of row dicts — the data behind the corresponding
figure panel of the paper. Timings separate the warm-up (parameter
estimation) from sampling, and context preparation (index construction:
Yannakakis reduction, EW weights, walk plans, membership index) is done
by :func:`prewarm` beforehand so sampling measurements are steady-state —
the paper likewise excludes its hash-index construction from sampling
time.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.core.exact import full_join_union
from repro.core.histogram_union import auto_histogram_warmup, histogram_warmup
from repro.core.join_sampler import UnionContext
from repro.core.online_union import online_union_sample
from repro.core.randomwalk_union import randomwalk_warmup
from repro.core.union_sampler import set_union_sample, warmup_params
from repro.workloads import uq1, uq2, uq3
from repro.workloads.base import Workload

WORKLOADS = {"uq1": uq1, "uq2": uq2, "uq3": uq3}

# The three framework instantiations evaluated throughout §9.2–9.3.
INSTANTIATIONS = [
    ("hist-ew", "ew"),  # HISTOGRAM-BASED warm-up + Exact Weight join sampling
    ("hist-eo", "eo"),  # HISTOGRAM-BASED warm-up + Extended Olken join sampling
    ("rw", "ew"),       # RANDOM-WALK warm-up + Exact Weight join sampling
]


def build(spark: SparkSession, name: str, *, sf: float, overlap: float, **kw) -> Workload:
    return WORKLOADS[name](spark, sf=sf, overlap=overlap, **kw)


def prewarm(uctx: UnionContext) -> None:
    """Materialize all per-join indexes so later timings are steady-state."""
    for name in uctx.names:
        ctx = uctx.ctx(name)
        ctx.plan  # collect + reduce + weight + sort the join index
        ctx.size_olken
    uctx.membership  # index the collected relations for membership probes


def _hist_estimate(w: Workload, size_method: str = "eo"):
    """HISTOGRAM-BASED estimate with the chain/splitting dispatch."""
    return auto_histogram_warmup(w.uctx, size_method=size_method)


def ratio_errors(est_ratios: dict, true_ratios: dict) -> dict:
    return {j: abs(est_ratios[j] - true_ratios[j]) for j in true_ratios}


# --------------------------------------------------------------------------
# T1 (Fig 4a/4b): error of |J_i|/|U| estimation, HISTOGRAM-BASED + EO,
# vs overlap scale, on UQ1 and UQ3.
def t1_ratio_error_hist(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    overlaps: tuple = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8),
    workloads: tuple = ("uq1", "uq3"),
    size_methods: tuple = ("eo", "ew"),
) -> list[dict]:
    """Both size instantiations are reported: with exact (EW) sizes the
    only error source is the Theorem 4 overlap bound, which tightens with
    overlap (the Fig 4 mechanism in isolation); EO adds the Olken
    join-size inflation on top (overlap-independent in our substrate)."""
    rows = []
    for wname in workloads:
        for ov in overlaps:
            w = build(spark, wname, sf=sf, overlap=ov)
            ex = full_join_union(spark, w.joins)
            for sm in size_methods:
                est = _hist_estimate(w, size_method=sm)
                errs = ratio_errors(est.ratios, ex.ratios())
                for j, e in errs.items():
                    rows.append(
                        {
                            "workload": wname,
                            "size_method": sm,
                            "overlap": ov,
                            "join": j,
                            "est_ratio": est.ratios[j],
                            "true_ratio": ex.ratios()[j],
                            "abs_error": e,
                        }
                    )
                rows.append(
                    {
                        "workload": wname,
                        "size_method": sm,
                        "overlap": ov,
                        "join": "AVG",
                        "est_ratio": sum(est.ratios.values()) / len(errs),
                        "true_ratio": sum(ex.ratios().values()) / len(errs),
                        "abs_error": sum(errs.values()) / len(errs),
                    }
                )
    return rows


# --------------------------------------------------------------------------
# T2 (Fig 4c/4d): runtime of union size estimation — HISTOGRAM-BASED vs
# FullJoinUnion — on UQ1 and UQ3, vs overlap scale.
def t2_union_size_runtime(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    overlaps: tuple = (0.1, 0.2, 0.4, 0.8),
    workloads: tuple = ("uq1", "uq3"),
) -> list[dict]:
    """Both methods read the relations' collected frames, so every relation
    is collected before either is timed (``collect_seconds``); each
    workload's cached frames are released once its row is done."""
    rows = []
    for wname in workloads:
        for ov in overlaps:
            w = build(spark, wname, sf=sf, overlap=ov)
            rels = list({id(r): r for j in w.joins for r in j.relations()}.values())
            t0 = time.perf_counter()
            for r in rels:
                r.pdf
            t_collect = time.perf_counter() - t0
            t0 = time.perf_counter()
            est = _hist_estimate(w)
            t_hist = time.perf_counter() - t0
            t0 = time.perf_counter()
            ex = full_join_union(spark, w.joins)
            t_full = time.perf_counter() - t0
            rows.append(
                {
                    "workload": wname,
                    "overlap": ov,
                    "collect_seconds": t_collect,
                    "hist_seconds": t_hist,
                    "fulljoin_seconds": t_full,
                    "hist_union_est": est.union,
                    "true_union": ex.union,
                }
            )
            for r in rels:
                r.df.unpersist()
    return rows


# --------------------------------------------------------------------------
# T3 (Fig 5a): ratio-estimation error per join — HISTOGRAM-BASED+EO vs
# RANDOM-WALK — on UQ1.
def t3_ratio_error_rw(
    spark: SparkSession, *, sf: float = 0.01, overlap: float = 0.2, seed: int = 0
) -> list[dict]:
    w = build(spark, "uq1", sf=sf, overlap=overlap)
    prewarm(w.uctx)
    ex = full_join_union(spark, w.joins)
    hist = _hist_estimate(w)
    t0 = time.perf_counter()
    rw, _ = randomwalk_warmup(w.uctx, seed=seed)
    t_rw = time.perf_counter() - t0
    true_r = ex.ratios()
    rows = []
    for j in w.uctx.names:
        rows.append(
            {
                "join": j,
                "true_ratio": true_r[j],
                "hist_eo_error": abs(hist.ratios[j] - true_r[j]),
                "rw_error": abs(rw.ratios[j] - true_r[j]),
                "rw_warmup_seconds": t_rw,
            }
        )
    return rows


# --------------------------------------------------------------------------
# T4 (Fig 5b): SetUnion sampling time vs data scale on UQ1.
def t4_scale_data(
    spark: SparkSession,
    *,
    sfs: tuple = (0.0025, 0.005, 0.01),
    n: int = 200,
    overlap: float = 0.2,
    seed: int = 0,
) -> list[dict]:
    rows = []
    for sf in sfs:
        w = build(spark, "uq1", sf=sf, overlap=overlap)
        prewarm(w.uctx)
        for warm, sampler in INSTANTIATIONS:
            est = warmup_params(w.uctx, warm, seed=seed)
            t0 = time.perf_counter()
            res = set_union_sample(
                w.uctx, n, warmup=est, sampler=sampler, seed=seed + 1
            )
            dt = time.perf_counter() - t0
            rows.append(
                {
                    "sf": sf,
                    "method": f"{warm}+{sampler}",
                    "n": len(res.samples),
                    "seconds": dt,
                    "drawn": res.n_drawn,
                }
            )
    return rows


# --------------------------------------------------------------------------
# T5 (Fig 5c–e): sampling time vs sample count, all three instantiations.
def t5_scale_samples(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    ns: tuple = (50, 100, 200, 400),
    workloads: tuple = ("uq1", "uq2", "uq3"),
    overlap: float = 0.2,
    seed: int = 0,
) -> list[dict]:
    rows = []
    for wname in workloads:
        w = build(spark, wname, sf=sf, overlap=overlap)
        prewarm(w.uctx)
        for warm, sampler in INSTANTIATIONS:
            t0 = time.perf_counter()
            est = warmup_params(w.uctx, warm, seed=seed)
            t_warm = time.perf_counter() - t0
            for n in ns:
                t0 = time.perf_counter()
                res = set_union_sample(
                    w.uctx, n, warmup=est, sampler=sampler, seed=seed + n
                )
                dt = time.perf_counter() - t0
                rows.append(
                    {
                        "workload": wname,
                        "method": f"{warm}+{sampler}",
                        "n": n,
                        "sampling_seconds": dt,
                        "warmup_seconds": t_warm,
                        "drawn": res.n_drawn,
                    }
                )
    return rows


# --------------------------------------------------------------------------
# T6 (Fig 5f–h): time breakdown — parameter estimation / accepted / rejected.
def t6_breakdown(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    n: int = 200,
    workloads: tuple = ("uq1", "uq2", "uq3"),
    overlap: float = 0.2,
    seed: int = 0,
) -> list[dict]:
    rows = []
    for wname in workloads:
        w = build(spark, wname, sf=sf, overlap=overlap)
        prewarm(w.uctx)
        for warm, sampler in INSTANTIATIONS:
            res = set_union_sample(
                w.uctx, n, warmup=warm, sampler=sampler, seed=seed
            )
            rows.append(
                {
                    "workload": wname,
                    "method": f"{warm}+{sampler}",
                    "warmup_seconds": res.timings["warmup"],
                    "accepted_seconds": res.timings["accepted"],
                    "rejected_seconds": res.timings["rejected"],
                    "n_drawn": res.n_drawn,
                    "n_rejected": res.n_rejected_cover
                    + (res.stats.n_rejected_weight if res.stats else 0),
                }
            )
    return rows


# --------------------------------------------------------------------------
# T7 (Fig 6a): ONLINE-UNION time vs sample size, with vs without reuse.
def t7_reuse(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    ns: tuple = (50, 100, 200, 400),
    workloads: tuple = ("uq1", "uq2", "uq3"),
    overlap: float = 0.2,
    seed: int = 0,
) -> list[dict]:
    rows = []
    for wname in workloads:
        w = build(spark, wname, sf=sf, overlap=overlap)
        prewarm(w.uctx)
        for reuse in (True, False):
            for n in ns:
                t0 = time.perf_counter()
                res = online_union_sample(w.uctx, n, reuse=reuse, seed=seed + n)
                dt = time.perf_counter() - t0
                rows.append(
                    {
                        "workload": wname,
                        "reuse": reuse,
                        "n": n,
                        "total_seconds": dt,
                        "sampling_seconds": res.timings["reuse"]
                        + res.timings["regular"],
                        "reuse_accepted": res.counts["reuse_accepted"],
                        "regular_accepted": res.counts["regular_accepted"],
                    }
                )
    return rows


# --------------------------------------------------------------------------
# T8 (Fig 6b): per-accepted-sample time, regular phase vs reuse phase.
def t8_per_sample(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    n: int = 300,
    workloads: tuple = ("uq1", "uq2", "uq3"),
    overlap: float = 0.2,
    seed: int = 0,
) -> list[dict]:
    rows = []
    for wname in workloads:
        w = build(spark, wname, sf=sf, overlap=overlap)
        prewarm(w.uctx)
        res = online_union_sample(w.uctx, n, reuse=True, seed=seed)
        rows.append(
            {
                "workload": wname,
                "reuse_sec_per_sample": res.per_sample_time("reuse"),
                "regular_sec_per_sample": res.per_sample_time("regular"),
                "reuse_accepted": res.counts["reuse_accepted"],
                "regular_accepted": res.counts["regular_accepted"],
            }
        )
    return rows
