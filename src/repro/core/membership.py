"""Tuple-in-join membership index (§6.2's "queries with key", batched).

A candidate output tuple u belongs to join J iff (a) all of J's join
conditions hold as column equalities inside u, and (b) u's projection onto
every base relation of J exists in that relation among the rows that can
join. With full-schema outputs (the paper's setting — all joins share one
output schema), (a) + (b) is an exact membership test, given two rules:

* a row with a null join key joins nothing (SQL semantics, as in
  :func:`~repro.core.join_spec.inner_join`), so it is not indexed;
* relations linked by a hidden-key edge (a vertical split rejoined on a
  ``__`` row id) are merged once on that key and indexed as one unit, so
  the halves of different rows do not pass together.

:class:`MembershipIndex` is the analogue of the paper's in-memory hash
tables over relations: the distinct rows of each unit, indexed once from
the relations' frames, so a probe is an exact lookup of each
candidate's projection on the driver, with no Spark job.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .join_spec import Join, Node, Relation, inner_join

# One unit of a join: its relations, linked by hidden-key edges, with the
# hidden-key edges' (parent, child) columns and the unit's join-key columns.
Unit = tuple[tuple[Relation, ...], tuple[tuple[str, str], ...], tuple[str, ...]]


def _units(join: Join) -> list[Unit]:
    """The join's relations grouped along hidden-key edges, in BFS order."""
    keys: dict[int, set[str]] = {id(n): set() for n in join.nodes()}
    unit_of = {id(join.root): 0}
    nodes: list[list[Node]] = [[join.root]]
    links: list[list[tuple[str, str]]] = [[]]
    for parent, e in join.edges():
        keys[id(parent)].add(e.parent_col)
        keys[id(e.child)].add(e.child_col)
        if e.parent_col.startswith("__"):
            u = unit_of[id(parent)]
            links[u].append((e.parent_col, e.child_col))
        else:
            u = len(nodes)
            nodes.append([])
            links.append([])
        unit_of[id(e.child)] = u
        nodes[u].append(e.child)
    return [
        (
            tuple(n.relation for n in ns),
            tuple(ls),
            tuple(sorted(set().union(*(keys[id(n)] for n in ns)))),
        )
        for ns, ls in zip(nodes, links)
    ]


def _unit_rows(unit: Unit) -> tuple[list[str], pd.MultiIndex]:
    """The unit's visible columns and its distinct joinable rows."""
    rels, links, keys = unit
    df = rels[0].pdf
    for rel, (pcol, ccol) in zip(rels[1:], links):
        df = inner_join(df, rel.pdf, [pcol], [ccol])
    cols = [c for c in df.columns if not c.startswith("__")]
    keys = [k for k in keys if k in cols]
    if any(df[k].hasnans for k in keys):  # dropna alone would copy every time
        df = df.dropna(subset=keys)
    return cols, pd.MultiIndex.from_frame(df[cols]).unique()


class MembershipIndex:
    """The distinct joinable rows of every unit of ``joins``, indexed once
    per distinct unit (a relation shared by several joins is indexed once)."""

    def __init__(self, joins: list[Join]):
        self.joins = joins
        self.units = [_units(join) for join in joins]
        self.rows: dict[Unit, tuple[list[str], pd.MultiIndex]] = {}
        for units in self.units:
            for unit in units:
                if unit not in self.rows:
                    self.rows[unit] = _unit_rows(unit)

    def matrix(self, candidates: pd.DataFrame) -> np.ndarray:
        """Boolean matrix m[i, j] = candidates.iloc[i] ∈ joins[j]."""
        probes: dict[tuple[str, ...], pd.MultiIndex] = {}  # one per column set
        found = {}
        for unit, (cols, rows) in self.rows.items():
            if tuple(cols) not in probes:
                probes[tuple(cols)] = pd.MultiIndex.from_frame(candidates[cols])
            found[unit] = rows.get_indexer(probes[tuple(cols)]) >= 0
        m = np.ones((len(candidates), len(self.joins)), dtype=bool)
        for j, join in enumerate(self.joins):
            for a, b in join.condition_pairs():
                m[:, j] &= candidates[a].to_numpy() == candidates[b].to_numpy()
            for unit in self.units[j]:
                m[:, j] &= found[unit]
        return m

    def min_index(self, candidates: pd.DataFrame) -> np.ndarray:
        """f(u) = index of the first join containing each candidate (the
        deterministic min-index cover of §3.1); -1 if in none."""
        return first_join(self.matrix(candidates))


def first_join(m: np.ndarray) -> np.ndarray:
    """Each bitmap row's first set column: its min-index join; -1 if none."""
    out = np.full(len(m), -1, dtype=np.int64)
    any_row = m.any(axis=1)
    out[any_row] = m[any_row].argmax(axis=1)
    return out
