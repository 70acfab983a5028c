"""Batched random walks over the join data graph (§6.1, wander join).

Walks run on the driver, against each join's walk plan: its relations,
collected once (:attr:`Relation.pdf <repro.core.join_spec.Relation.pdf>`),
fully reduced, EW-weighted and sorted by their join columns — the paper's
in-memory hash indexes. All walks of one request advance together, one
vectorized ``searchsorted`` lookup per join edge:

* ``ew``      — within the joinable range [lo, hi) of the child relation a
                row is picked ∝ its Exact Weight via the cumulative-weight
                inverse-CDF; the completed walk is *exactly uniform* over
                the join result, p(t) = 1/|J|.
* ``uniform`` — a uniform pick among the d = hi−lo joinable rows (wander
                join); p(t) = 1/|R_root| · Π 1/dᵢ and Π dᵢ are tracked per
                walk for HT estimation and Olken (EO) acceptance.

Dead-ended walks are dropped from the result and reported in ``n_failed``
(they contribute 0 to HT estimates, as in the paper). Randomness is drawn
request by request from one generator, so results are deterministic in
``seed``. No Spark job runs once a join's plan is built.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import pandas as pd

from .join_spec import Join

P = "__p"
DPROD = "__dprod"


@dataclass
class WalkResult:
    """Completed walks: value columns + ``__p`` (+ ``__dprod`` in uniform
    mode), plus failure count."""

    pdf: pd.DataFrame
    n_failed: int
    n_walks: int


@dataclass
class WalkStep:
    """Join edge i of a plan: the walk follows ``frames[src][pcol]`` into
    ``frames[i + 1]``, the child relation sorted by its join key."""

    src: int
    pcol: str
    keys: np.ndarray  # the child's sorted join keys
    cumw: np.ndarray  # cumulative EW weights of the sorted child rows, from 0
    max_deg: int
    fake: bool


@dataclass
class WalkPlan:
    """A join's walk index: the root relation, then each edge's child."""

    frames: list[pd.DataFrame]
    root_w: np.ndarray  # EW weight of each root row
    total_weight: float  # Σ root_w, the exact join size
    steps: list[WalkStep]
    owner: dict[str, int]  # column -> first frame holding it

    @property
    def root(self) -> pd.DataFrame:
        return self.frames[0]

    def gather(self, rows: list[np.ndarray], cols: list[str]) -> pd.DataFrame:
        """The ``cols`` of walks that sit at ``rows[k]`` of each frame k."""
        return pd.DataFrame(
            {c: self.frames[self.owner[c]][c].to_numpy()[rows[self.owner[c]]] for c in cols}
        )


# The one plan cache. Weak keys: a join's plan lives as long as the join.
_plans: weakref.WeakKeyDictionary[Join, WalkPlan] = weakref.WeakKeyDictionary()


def _walk_plan(join: Join) -> WalkPlan:
    """Reduce, weight and sort the join's collected relations, once per
    join — the one-time "index construction" of the paper's framework
    (their hash tables). The full (Yannakakis) reduction, the EW weight
    DP and each edge's max degree (the Olken bound's M) run vectorized on
    the collected data; this is their one implementation, and tests check
    it against DuckDB.
    """
    cached = _plans.get(join)
    if cached is not None:
        return cached
    nodes = join.nodes()
    edges = list(join.edges())  # (parent Node, Edge), BFS order
    pdfs: dict[int, pd.DataFrame] = {id(n): n.relation.pdf for n in nodes}
    # --- full reducer: bottom-up then top-down semijoins -----------------
    # A null key matches nothing (SQL semantics, as in ``inner_join``):
    # ``isin`` would match NaN with NaN.
    for parent, e in reversed(edges):
        keys = pdfs[id(e.child)][e.child_col].dropna().unique()
        par = pdfs[id(parent)]
        pdfs[id(parent)] = par[par[e.parent_col].isin(keys)]
    for parent, e in edges:
        keys = pdfs[id(parent)][e.parent_col].dropna().unique()
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
    root_w = w[id(join.root)]
    # --- per-edge sorted children + cumulative weights --------------------
    frames = [pdfs[id(join.root)]]
    owner = dict.fromkeys(frames[0].columns, 0)
    steps = []
    for parent, e in edges:
        child = pdfs[id(e.child)]
        keys = child[e.child_col].to_numpy()
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        cumw = np.concatenate([[0.0], np.cumsum(w[id(e.child)][order])])
        max_deg = int(np.unique(keys_sorted, return_counts=True)[1].max()) if len(keys) else 0
        steps.append(
            WalkStep(owner[e.parent_col], e.parent_col, keys_sorted, cumw, max_deg, e.fake)
        )
        frames.append(child.iloc[order].reset_index(drop=True))
        for c in child.columns:
            owner.setdefault(c, len(frames) - 1)
    plan = WalkPlan(frames, root_w, float(root_w.sum()), steps, owner)
    _plans[join] = plan
    return plan


def walk_kernel(
    plan: WalkPlan, starts: np.ndarray, us: np.ndarray, mode: str
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Advance one walk per root row in ``starts``; ``us[:, i]`` drives
    step i. Returns, for the walks that complete, their row in every plan
    frame, their p(t) in uniform mode, and Π dᵢ."""
    rows = [starts]
    p = np.full(len(starts), 1.0 / len(plan.root))
    dprod = np.ones(len(starts))
    for i, step in enumerate(plan.steps):
        keyvals = plan.frames[step.src][step.pcol].to_numpy()[rows[step.src]]
        lo = np.searchsorted(step.keys, keyvals, side="left")
        hi = np.searchsorted(step.keys, keyvals, side="right")
        alive = hi > lo
        cw = step.cumw
        if mode == "ew":
            # a range whose weights are all zero is a dead end too
            alive &= cw[hi] > cw[lo]
        if not alive.all():
            rows = [r[alive] for r in rows]
            p, dprod, lo, hi, us = p[alive], dprod[alive], lo[alive], hi[alive], us[alive]
        u = us[:, i]
        if mode == "ew":
            target = cw[lo] + u * (cw[hi] - cw[lo])
            idx = np.clip(np.searchsorted(cw, target, side="right") - 1, lo, hi - 1)
        else:
            d = hi - lo
            idx = lo + np.minimum((u * d).astype(np.int64), d - 1)
            p = p / d
            dprod = dprod * d
        rows.append(idx)
    return rows, p, dprod


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
    """The results of one :func:`run_walks` call, one per request, in
    request order."""

    results: list[WalkResult]

    @property
    def n_walks(self) -> int:
        return sum(r.n_walks for r in self.results)

    @property
    def n_failed(self) -> int:
        return sum(r.n_failed for r in self.results)


def run_walks(requests: list[WalkRequest], *, seed: int = 0) -> WalkBatch:
    """Run every request's independent random walks.

    A request for an empty join (or an EW request whose total weight is 0)
    walks nowhere: all its walks fail.
    """
    rng = np.random.default_rng(seed)
    results = []
    for req in requests:
        if req.mode not in ("uniform", "ew"):
            raise ValueError(req.mode)
        plan = _walk_plan(req.join)
        n, n_root, tw = req.n_walks, len(plan.root), plan.total_weight
        if n <= 0 or n_root == 0 or (req.mode == "ew" and tw <= 0):
            results.append(WalkResult(pd.DataFrame(), n, n))
            continue
        if req.mode == "ew":
            starts = rng.choice(n_root, size=n, p=plan.root_w / tw)
        else:
            starts = rng.integers(0, n_root, size=n)
        us = rng.random((n, len(plan.steps)))
        rows, p, dprod = walk_kernel(plan, starts, us, req.mode)
        pdf = plan.gather(rows, req.join.value_cols)
        if req.mode == "ew":
            pdf[P] = 1.0 / (req.total_weight if req.total_weight is not None else tw)
        else:
            pdf[P] = p
            pdf[DPROD] = dprod
        results.append(WalkResult(pdf, n - len(pdf), n))
    return WalkBatch(results)
