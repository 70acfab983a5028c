"""The benchmark's workloads: what each one builds and which public calls it times.

Both are closed loops: one caller issues the calls of ``ops`` back to back,
each after the previous one returned. Each workload has exactly three timed
calls, reported as ``op1``..``op3`` in that order.

``uq1-sample``
    UQ1 (five equi-length chains, heavy cover rejection). ``prep`` computes
    the HISTOGRAM-BASED estimates (EW and EO sizes) once; the loop is
    steady-state Algorithm 1, ``set_union_sample(N=200)`` for hist-ew+EW and
    hist-eo+EO, and ONLINE-UNION (Algorithm 2,
    ``online_union_sample(N=300, reuse=True)``, whose samples all come from
    the RANDOM-WALK warm-up's pools: they yield 620-800, and at N=600 the
    regular phase ran on some seeds and not others, and the call's time with
    it; the regular phase is ``set_union_sample``'s join sampler, timed by
    the other two ops). ``walker``,
    ``join_sampler``, ``membership``, ``union_sampler`` and ``online_union``
    do the timed work.
``uq3-estimate``
    UQ3 (one acyclic join plus two chains over split relations). The loop is
    union-size estimation (Fig 4c/d): the HISTOGRAM-BASED warm-up, the
    RANDOM-WALK warm-up and FullJoinUnion. The only workload where the
    splitting templates and the materialising baseline run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.exact import full_join_union
from repro.core.histogram_union import auto_histogram_warmup
from repro.core.online_union import online_union_sample
from repro.core.randomwalk_union import randomwalk_warmup
from repro.core.union_sampler import set_union_sample
from repro.workloads import uq1, uq3

SF = 0.002  # the ops are bound by Spark job dispatch, not by data size
N_SAMPLES = 200
N_ONLINE = 300

SAMPLE = "union_sampler.set_union_sample"
HIST = "histogram_union.auto_histogram_warmup"
RW = "randomwalk_union.randomwalk_warmup"
FULL = "exact.full_join_union"
ONLINE = "online_union.online_union_sample"


@dataclass(frozen=True)
class Op:
    """One public call: ``call(seed)`` runs it, ``check(result, truth)``
    returns None or what is wrong with the result."""

    name: str
    layer: str  # the public function called, as a trace layer name
    call: Callable[[int], Any]
    check: Callable[[Any, Any], str | None]
    # result -> the WarmupEstimate whose ratio error is reported, by its method
    estimate: Callable[[Any], Any] | None = None
    repeat: int = 1  # calls per loop cycle; cheap ops repeat so their median settles


def _check_sample(res, truth):
    return truth.check_sample(res.samples, N_SAMPLES)


def _check_online(res, truth):
    return truth.check_sample(res.samples, N_ONLINE) or truth.check_estimate(res.estimate)


def _check_estimate(res, truth):
    return truth.check_estimate(res)


def _itself(res):
    return res


def _check_full(res, truth):
    return truth.check_atoms(res.atoms)


@dataclass(frozen=True)
class Spec:
    name: str
    build: Callable  # (spark, seed) -> repro Workload
    prep: Callable  # workload -> ops run once before the first timed call
    ops: Callable  # (workload, {prep op name: result}) -> the three timed ops


def _uq1_prep(w) -> list[Op]:
    uctx = w.uctx
    return [
        Op("estimate.hist-ew", HIST, lambda s: auto_histogram_warmup(uctx, size_method="ew"), _check_estimate),
        Op("estimate.hist-eo", HIST, lambda s: auto_histogram_warmup(uctx, size_method="eo"), _check_estimate, _itself),
    ]


def _uq1_ops(w, prepared) -> list[Op]:
    def sample(name: str, method: str, sampler: str, repeat: int = 1) -> Op:
        est = prepared[f"estimate.{method}"]
        return Op(
            name,
            SAMPLE,
            lambda s: set_union_sample(w.uctx, N_SAMPLES, warmup=est, sampler=sampler, seed=s),
            _check_sample,
            repeat=repeat,
        )

    return [
        sample("sample.hist-ew", "hist-ew", "ew", repeat=3),
        sample("sample.hist-eo", "hist-eo", "eo"),
        Op(
            "online.reuse",
            ONLINE,
            lambda s: online_union_sample(w.uctx, N_ONLINE, reuse=True, seed=s),
            _check_online,
            # after its first backtracking step, the RANDOM-WALK warm-up's estimate
            lambda res: res.estimate,
        ),
    ]


def _uq3_ops(w, prepared) -> list[Op]:
    uctx = w.uctx
    return [
        Op("estimate.hist", HIST, lambda s: auto_histogram_warmup(uctx, size_method="eo"), _check_estimate, _itself),
        Op("estimate.rw", RW, lambda s: randomwalk_warmup(uctx, seed=s)[0], _check_estimate, _itself, repeat=2),
        Op("estimate.full", FULL, lambda s: full_join_union(w.spark, w.joins), _check_full, repeat=2),
    ]


SPECS = {
    s.name: s
    for s in (
        Spec(
            "uq1-sample",
            lambda spark, seed: uq1(spark, sf=SF, overlap=0.2, seed=seed),
            _uq1_prep,
            _uq1_ops,
        ),
        Spec(
            "uq3-estimate",
            lambda spark, seed: uq3(spark, sf=SF, overlap=0.2, seed=seed),
            lambda w: [],
            _uq3_ops,
        ),
    )
}
