"""i.i.d. uniform sampling from a single join (§3.2, Zhao et al. adapted).

Two weight instantiations, as evaluated in the paper:

* **EW (Exact Weight)** — top-down sampling proportional to the EW dynamic
  program; zero rejection, exactly uniform.
* **EO (Extended Olken)** — uniform random walk accepted with probability
  (Π dᵢ) / (Π Mᵢ); exactly uniform with rejection rate 1 − |J|/bound.

Both run on the Yannakakis-reduced join (the paper's "extra linear search
to zero out non-joinable tuples"), so walks never dead-end and the EO
bound is as tight as max-degree statistics allow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from . import walker
from .join_spec import Join
from .membership import MembershipIndex
from .walker import DPROD, WalkBatch, WalkPlan, WalkRequest, run_walks

JOIN = "__join"  # name of the join a sample_join row was drawn from


@dataclass
class SampleStats:
    """Cost accounting for the union sampler's breakdown table (T6)."""

    n_walks: int = 0
    n_accepted: int = 0
    n_rejected_weight: int = 0  # EO weight-bound rejections
    walks_by_join: dict[str, int] = field(default_factory=dict)


class JoinContext:
    """Per-join artifacts, all read off the walk plan: the one-time
    reduced and EW-weighted index of the join, cached by
    :func:`repro.core.walker._walk_plan`."""

    def __init__(self, join: Join):
        self.join = join
        self.name = join.name

    @property
    def plan(self) -> WalkPlan:
        return walker._walk_plan(self.join)

    @property
    def size_exact(self) -> int:
        """Exact |J| — Σ of root EW weights (no join materialization)."""
        return int(round(self.plan.total_weight))

    @property
    def size_olken(self) -> int:
        """Extended Olken bound |R_root| · Π M (§3.2).

        Along every edge a parent tuple matches at most M = the child's
        max degree on its join column, so |J| ≤ |R_root| · Π M. A fake
        edge contributes 1: a split row rejoins exactly its counterpart.
        The bound is taken over the plan's fully reduced relations (the
        paper's "extra linear search to zero the weights of non-joinable
        tuples"), which tightens it."""
        return self.n_root * self.m_prod

    @property
    def m_prod(self) -> int:
        """Π M over the plan's non-fake edges."""
        return math.prod(s.max_deg for s in self.plan.steps if not s.fake)

    @property
    def n_root(self) -> int:
        return len(self.plan.root)


def wander_walks(ctxs: list[JoinContext], n: int, seed: int) -> WalkBatch:
    """``n`` uniform random walks with tracked p(t) over each join; the
    plan's full reduction means walks never dead-end (the paper's
    zero-weight fix)."""
    return run_walks([WalkRequest(c.join, n, "uniform") for c in ctxs], seed=seed)


def sample_join(
    counts: dict[JoinContext, int],
    *,
    method: str = "ew",
    seed: int = 0,
    stats: SampleStats | None = None,
    predicate=None,
) -> pd.DataFrame:
    """Return exactly ``counts[ctx]`` i.i.d. uniform tuples from each
    join, using the EW or EO instantiation. Each over-draw iteration is
    one :func:`run_walks` call for every join still short.

    The result holds the value columns and ``__join`` (the join's name),
    joins in the order of ``counts``. Sampling a join with no results
    raises ``ValueError``.

    ``predicate`` (pandas DataFrame → boolean mask) enforces a selection
    during sampling — §8.3's second alternative: an extra rejection factor,
    appropriate for predicates that are not very selective. The result is
    uniform over σ_predicate(J). (The first alternative — push-down — is
    what the workloads do: filter the base relations up front.)"""
    if method not in ("ew", "eo"):
        raise ValueError(method)
    need = {c: n for c, n in counts.items() if n > 0}
    for c in need:
        if c.plan.total_weight <= 0:
            raise ValueError(f"join {c.name} has no results to sample")
    rng = np.random.default_rng(seed)
    out: dict[JoinContext, list[pd.DataFrame]] = {c: [] for c in need}
    got = dict.fromkeys(need, 0)
    # EO over-draw factor from the analytic acceptance rate |J| / bound.
    acc = {
        c: max(c.size_exact / max(c.size_olken, 1), 1e-3) if method == "eo" else 1.0
        for c in need
    }
    while short := [c for c in need if got[c] < need[c]]:
        requests = [
            WalkRequest(
                c.join,  # one shared walk plan serves EW and uniform modes
                min(int(np.ceil((need[c] - got[c]) / acc[c] * 1.2)) + 8, 200_000),
                "ew" if method == "ew" else "uniform",
                float(c.size_exact) if method == "ew" else None,
            )
            for c in short
        ]
        batch = run_walks(requests, seed=int(rng.integers(2**31)))
        for c, res in zip(short, batch.results):
            if stats is not None:
                stats.n_walks += res.n_walks
                by_join = stats.walks_by_join
                by_join[c.name] = by_join.get(c.name, 0) + res.n_walks
            pdf = res.pdf
            if method == "eo" and len(pdf):
                p_acc = pdf[DPROD].to_numpy(dtype=float) / c.m_prod
                keep = rng.random(len(pdf)) < p_acc
                if stats is not None:
                    stats.n_rejected_weight += int((~keep).sum()) + res.n_failed
                pdf = pdf[keep]
            if predicate is not None and len(pdf):
                pdf = pdf[predicate(pdf)]
            if len(pdf):
                out[c].append(pdf[c.join.value_cols])
                got[c] += len(pdf)
    frames = [
        pd.concat(out[c], ignore_index=True).head(need[c]).assign(**{JOIN: c.name})
        for c in need
    ]
    if not frames:
        return pd.DataFrame(columns=[JOIN])
    result = pd.concat(frames, ignore_index=True)
    if stats is not None:
        stats.n_accepted += len(result)
    return result


@dataclass
class UnionContext:
    """Contexts for every join of a union workload, keyed by join name."""

    joins: list[Join]
    contexts: dict[str, JoinContext] = field(default_factory=dict)
    _membership = None

    def __post_init__(self) -> None:
        for j in self.joins:
            self.contexts[j.name] = JoinContext(j)

    def ctx(self, name: str) -> JoinContext:
        return self.contexts[name]

    @property
    def membership(self):
        """Lazily built MembershipIndex over all joins (§6.2 probes)."""
        if self._membership is None:
            self._membership = MembershipIndex(self.joins)
        return self._membership

    @property
    def names(self) -> list[str]:
        return [j.name for j in self.joins]

    @property
    def value_cols(self) -> list[str]:
        return self.joins[0].value_cols
