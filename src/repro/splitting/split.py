"""Split joins into template-aligned two-attribute chains (§5.2, §8.1).

Given a template A_1 … A_m, join J is viewed as the chain of sub-relations
(A_i, A_{i+1}); the Theorem 4 recursion then bounds the overlap of a set Δ
of joins stage by stage. This module computes each join's stage statistics
*attribute-granularly*, which is the sound generalization of §5.1:

* **K(1)** — per-value count of distinct (A_1, A_2) prefixes: exact row
  degrees when the pair is co-located, the §5.1 degree product when the
  pair spans a join condition, and a path-composed bound otherwise.
* **Stage cap for attribute c** — how many distinct values of c can extend
  one distinct prefix:
    - 1 if c is equality-determined by the prefix (condition closure);
    - 1 if every relation holding c was already charged (a relation's
      multiplicity is charged once — its remaining attributes ride along);
    - the degree of a prefix attribute y inside c's relation (1 if y is a
      unique key) when they are co-located;
    - otherwise a tree-path composition of attachment degrees.

``refine='max'`` keeps everything a sound upper bound; ``refine='avg'`` is
the §5.1 full-histogram expected-value refinement.

Templates anchored at different attributes expose different structure
(§8.1.2's "a good template is important"); every template's bound is
sound, so :func:`split_view_sets` emits one aligned view set per candidate
and estimators take the minimum.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.histogram_union import ChainStatsView
from repro.core.join_spec import Join, Node, Relation
from repro.core.stats import avg_degree, max_degree, pair_degree_product, self_degree

from .template import best_template, best_templates


def _deg(rel: Relation, col: str, kind: str) -> float:
    """Max or avg degree of ``col`` (the histogram is built once per
    relation, so repeated probes across templates and subsets are cheap)."""
    return float((max_degree if kind == "max" else avg_degree)(rel, col))


def _nodes_with(join: Join, attr: str) -> list[Node]:
    return [n for n in join.nodes() if attr in n.relation.cols]


def _closure(join: Join, attrs: set[str]) -> set[str]:
    """Equality closure of ``attrs`` under the join's conditions."""
    conds = join.condition_pairs()
    out = set(attrs)
    changed = True
    while changed:
        changed = False
        for a, b in conds:
            if a in out and b not in out:
                out.add(b)
                changed = True
            if b in out and a not in out:
                out.add(a)
                changed = True
    return out


def _path_mprod(join: Join, na: Node, nb: Node, refine: str) -> float:
    """Π of per-edge attachment degrees along the na→nb tree path.

    Traversal direction matters: following an edge parent→child charges
    deg(child, child_col) — how many child rows one parent row reaches —
    while child→parent charges deg(parent, parent_col). Fake edges are
    1:1 both ways. The climbing factors are multiplied first, from ``na``
    up, then the descending ones, from ``nb`` up.
    """
    up = {id(e.child): (p, e) for p, e in join.edges()}
    climb, descend = [], []
    path = join.path(na, nb)
    for n, m in zip(path, path[1:]):
        if id(n) in up and up[id(n)][0] is m:
            e = up[id(n)][1]
            climb.append(1.0 if e.fake else _deg(m.relation, e.parent_col, refine))
        else:
            e = up[id(m)][1]
            descend.append(1.0 if e.fake else _deg(m.relation, e.child_col, refine))
    prod = 1.0
    for f in climb + descend[::-1]:
        prod *= f
    return prod


def _first_pair(join: Join, a1: str, a2: str, refine: str) -> pd.Series:
    """``pairs`` indexed by a1 value v: a bound on the distinct (a1, a2)
    prefixes of the join output with a1 = v."""
    n1, n2 = join.node_of_attr(a1), join.node_of_attr(a2)
    r1, r2 = n1.relation, n2.relation
    if n1 is n2:
        return self_degree(r1, a1)
    conds = join.condition_pairs()
    if (a1, a2) in conds or (a2, a1) in conds:
        # a2 is equality-determined by a1: one pair per co-present value
        d1, d2 = self_degree(r1, a1).align(self_degree(r2, a2), join="inner")
        least = np.minimum(d1, d2)
        return least[least.index.notna()]  # null joins nothing
    h2col = None
    for x, y in conds:
        if x == a1 and y in r2.cols:
            h2col = y
            break
        if y == a1 and x in r2.cols:
            h2col = x
            break
    if h2col is None:
        # generic fallback: rows of a1's relation × path attachment bound
        return self_degree(r1, a1) * _path_mprod(join, n1, n2, refine)
    # §5.1's degree product across the join condition a1 = h2col
    return pair_degree_product(r1, a1, r2, h2col)


def _first_pair_charged(join: Join, a1: str, a2: str) -> set[int]:
    """Relations whose ROW multiplicity the K(1) term charges.

    The invariant behind the stage recursion is Olken-style: K bounds the
    number of row combinations of the *charged* relations consistent with
    the prefix, which in turn bounds the number of distinct value
    prefixes. Attributes of a charged relation extend a row combination
    with exactly one value (cap 1); everything else must charge rows.
    """
    n1, n2 = join.node_of_attr(a1), join.node_of_attr(a2)
    if n1 is n2:
        return {id(n1)}  # self-degree charges that relation's rows
    conds = join.condition_pairs()
    if (a1, a2) in conds or (a2, a1) in conds:
        return set()  # least(d1, d2) is a value-presence count — no rows
    for x, y in conds:
        if (x == a1 and y in n2.relation.cols) or (
            y == a1 and x in n2.relation.cols
        ):
            return {id(n1), id(n2)}  # degree product charges both
    return {id(n) for n in join.path(n1, n2)}  # path fallback


def split_view(join: Join, template: list[str], refine: str = "max") -> ChainStatsView:
    """The ChainStatsView of ``join`` under ``template`` (Theorem 4 input)."""
    if len(template) < 2:
        raise ValueError("template needs at least two attributes")
    a1, a2 = template[0], template[1]
    counted = _first_pair_charged(join, a1, a2)
    closure = _closure(join, {a1, a2})

    caps: list[float] = []
    for c in template[2:]:
        nodes_c = _nodes_with(join, c)
        charge: set[int] = set()
        if c in closure:
            cap = 1.0  # equality-determined by the prefix
        elif any(id(n) in counted for n in nodes_c):
            cap = 1.0  # a charged relation's row pins this value
        else:
            cap = float("inf")
            for nc in nodes_c:
                rel = nc.relation
                co = [y for y in closure if y in rel.cols]
                if co:
                    local = min(
                        1.0
                        if _deg(rel, y, "max") <= 1.0
                        else _deg(rel, y, refine)
                        for y in co
                    )
                    if local < cap:
                        cap, charge = local, {id(nc)}
                else:
                    # attach via the tree path from a charged node
                    for n_from in join.nodes():
                        if id(n_from) in counted:
                            local = _path_mprod(join, n_from, nc, refine)
                            if local < cap:
                                cap = local
                                charge = {
                                    id(n) for n in join.path(n_from, nc)
                                }
            if cap == float("inf"):
                # no structural link yet: charge the relation outright
                nc = nodes_c[0]
                cap = float(len(nc.relation.pdf))
                charge = {id(nc)}
        caps.append(cap)
        counted |= charge
        closure = _closure(join, closure | {c})

    first = lambda: _first_pair(join, a1, a2, refine)  # noqa: E731
    return ChainStatsView(join.name, first, [(lambda v=v: v) for v in caps])


def split_views(
    joins: list[Join],
    *,
    zero_weight: float = 0.0,
    template: list[str] | None = None,
    refine: str = "max",
) -> tuple[list[ChainStatsView], list[str]]:
    """Template-align a whole union workload; returns (views, template)."""
    template = template or best_template(joins, zero_weight=zero_weight)
    return [split_view(j, template, refine) for j in joins], template


def _schema(join: Join) -> tuple:
    """Everything a template search reads from a join: each node's columns
    and its edge to its parent, in BFS order."""
    nodes = join.nodes()
    index = {id(n): i for i, n in enumerate(nodes)}
    up = {id(e.child): (index[id(p)], e.parent_col, e.child_col, e.fake) for p, e in join.edges()}
    return tuple((tuple(n.relation.cols), up.get(id(n))) for n in nodes)


# Candidate templates by (zero_weight, join schemas). The search is one
# Held–Karp table over every output attribute (2^14 × 14 entries on UQ3)
# and reads nothing but schemas, so it runs once per union shape.
_templates: dict[tuple, list[list[str]]] = {}


def candidate_templates(
    joins: list[Join], *, zero_weight: float = 0.0
) -> list[list[str]]:
    """The unconstrained best template, one per cross-relation join
    condition placed first, and one anchored inside each relation (leading
    key-like attribute first — this is what captures horizontal-split
    overlap structurally). All bounds are sound; the estimator takes the
    minimum."""
    key = (zero_weight, *map(_schema, joins))
    if key not in _templates:
        conds = {
            (e.parent_col, e.child_col)
            for j in joins
            for _, e in j.edges()
            if e.parent_col != e.child_col and not e.fake
        }
        anchors = [(r.cols[0], r.cols[1]) for r in joins[0].relations() if len(r.cols) >= 2]
        prefixes = [None, *sorted(conds), *anchors]
        cands: list[list[str]] = []
        for t in best_templates(joins, prefixes, zero_weight=zero_weight):
            if t not in cands:
                cands.append(t)
        _templates[key] = cands
    return [list(t) for t in _templates[key]]


def split_view_sets(
    joins: list[Join], *, zero_weight: float = 0.0, refine: str = "max"
) -> list[list[ChainStatsView]]:
    """One aligned view set per candidate template."""
    return [
        [split_view(j, t, refine) for j in joins]
        for t in candidate_templates(joins, zero_weight=zero_weight)
    ]
