"""Join descriptions: relations, rooted join trees, chains, and composition.

A relation is a pandas frame on the driver, as the data generators return
it; walk plans, membership indexes, statistics and FullJoinUnion all read
that one copy. A join is a rooted tree of relations (a *chain* join is a
path). Every relation's frame already carries the standardized output
column names, so the set union of joins is well-defined on the
concatenation of column values (§2 of the paper: all joins have the same
output schema).

Conventions
-----------
* Columns whose name starts with ``__`` are *hidden* (row ids used by the
  splitting method's fake joins); they never participate in the tuple value.
* If an edge's parent and child column share a name, the join is composed with
  USING semantics (one copy of the column is kept). Otherwise both columns are
  kept and their equality is part of the tuple's invariant.
* Any other column-name collision between two relations of the same join is an
  error — it would make the output tuple ambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import pandas as pd


@dataclass(frozen=True, eq=False)
class Relation:
    """A named base relation with standardized output column names: the
    frame ``pdf`` is the relation itself. Relations compare by identity, so
    they can key the membership index's dicts."""

    name: str
    pdf: pd.DataFrame

    @property
    def cols(self) -> list[str]:
        """Value columns (hidden ``__`` columns excluded)."""
        return [c for c in self.pdf.columns if not c.startswith("__")]

    @cached_property
    def df(self):
        """A Spark view of :attr:`pdf`, built on first read in the active
        Spark session. No sampling, estimation or test path reads it; the
        benchmark's DuckDB truth frames are collected through it."""
        from pyspark.sql import SparkSession

        return SparkSession.active().createDataFrame(self.pdf)

    @cached_property
    def _degrees(self) -> dict[str, pd.Series]:
        return {}

    def degrees(self, col: str) -> pd.Series:
        """Per-value degree histogram of ``col`` (value → row count), built
        once from :attr:`pdf`: the §5 statistics a DBMS keeps per column.
        A null is one group of its own, as in a SQL ``GROUP BY``."""
        if col not in self._degrees:
            self._degrees[col] = self.pdf[col].value_counts(dropna=False, sort=False)
        return self._degrees[col]


@dataclass
class Edge:
    """A join edge ``parent.parent_col = child.relation.child_col``.

    ``fake`` marks a split-relation rejoin that is 1:1 by construction
    (§5.2 "fake join"); estimators use degree 1 for fake edges.
    """

    parent_col: str
    child_col: str
    child: "Node"
    fake: bool = False


@dataclass
class Node:
    relation: Relation
    edges: list[Edge] = field(default_factory=list)


class Join:
    """A rooted join tree with a standardized output schema."""

    def __init__(self, name: str, root: Node):
        self.name = name
        self.root = root
        self._check_collisions()

    # ---- structure -----------------------------------------------------
    def nodes(self) -> list[Node]:
        """All nodes in BFS order from the root."""
        out, queue = [], [self.root]
        while queue:
            n = queue.pop(0)
            out.append(n)
            queue.extend(e.child for e in n.edges)
        return out

    def edges(self) -> list[tuple[Node, Edge]]:
        """(parent, edge) pairs in BFS order."""
        out = []
        for n in self.nodes():
            out.extend((n, e) for e in n.edges)
        return out

    def relations(self) -> list[Relation]:
        return [n.relation for n in self.nodes()]

    @property
    def value_cols(self) -> list[str]:
        """Output columns: first occurrence order over BFS, deduplicated."""
        seen: list[str] = []
        for r in self.relations():
            for c in r.cols:
                if c not in seen:
                    seen.append(c)
        return seen

    def condition_pairs(self) -> list[tuple[str, str]]:
        """Join conditions whose two sides have *different* column names.

        These are equality invariants of every output tuple; membership
        checks must enforce them explicitly (same-name conditions hold
        trivially because the tuple has a single column of that name).
        """
        return [
            (e.parent_col, e.child_col)
            for _, e in self.edges()
            if e.parent_col != e.child_col
        ]

    def is_chain(self) -> bool:
        return all(len(n.edges) <= 1 for n in self.nodes())

    def as_chain(self) -> tuple[list[Relation], list[Edge]]:
        """(relations, edges) along the path; raises if not a chain."""
        if not self.is_chain():
            raise ValueError(f"join {self.name} is not a chain")
        rels, edges, node = [self.root.relation], [], self.root
        while node.edges:
            e = node.edges[0]
            edges.append(e)
            rels.append(e.child.relation)
            node = e.child
        return rels, edges

    # ---- composition ---------------------------------------------------
    def full_pdf(self) -> pd.DataFrame:
        """The full join result, distinct, materialized on the driver from
        the relations' frames (ground truth / baseline only).

        The sampling path never calls this; it exists for the
        FullJoinUnion baseline and the correctness oracle. A hidden column
        is carried only while a later edge still joins on it.
        """
        edges = self.edges()
        later = {e.parent_col for _, e in edges}
        df = _keep_hidden(self.root.relation.pdf, later)
        for i, (_, e) in enumerate(edges):
            later = {e2.parent_col for _, e2 in edges[i + 1 :]}
            child = _keep_hidden(e.child.relation.pdf, later | {e.child_col})
            df = _keep_hidden(inner_join(df, child, [e.parent_col], [e.child_col]), later)
        return df[self.value_cols].drop_duplicates(ignore_index=True)

    # ---- attribute lookup (used by the splitting method) ----------------
    def node_of_attr(self, col: str) -> Node:
        for n in self.nodes():
            if col in n.relation.cols:
                return n
        raise KeyError(f"attribute {col} not in join {self.name}")

    def path(self, na: Node, nb: Node) -> list[Node]:
        """Nodes on the tree path from ``na`` to ``nb`` (both included)."""
        parent = {id(e.child): p for p, e in self.edges()}

        def up(n: Node) -> list[Node]:
            out = [n]
            while id(n) in parent:
                n = parent[id(n)]
                out.append(n)
            return out

        ca, cb = up(na), up(nb)
        ids_a = {id(n): i for i, n in enumerate(ca)}
        for i, n in enumerate(cb):
            if id(n) in ids_a:
                return ca[: ids_a[id(n)] + 1] + cb[:i][::-1]
        raise RuntimeError("disconnected join tree")

    # ---- internals -------------------------------------------------------
    def _check_collisions(self) -> None:
        seen: dict[str, str] = {}
        using: set[str] = {
            e.parent_col for _, e in self.edges() if e.parent_col == e.child_col
        }
        for r in self.relations():
            for c in r.pdf.columns:
                # Hidden split row ids are keyed explicitly at composition time.
                if c.startswith("__"):
                    continue
                if c in seen and c not in using:
                    raise ValueError(
                        f"join {self.name}: column {c} appears in both "
                        f"{seen[c]} and {r.name} but is not a USING key"
                    )
                seen.setdefault(c, r.name)


def inner_join(
    left: pd.DataFrame, right: pd.DataFrame, left_on: list[str], right_on: list[str]
) -> pd.DataFrame:
    """SQL inner equi-join of two frames: a row with a null key matches
    nothing (``pd.merge`` alone would match NaN with NaN). Keys of the same
    name are kept once (USING semantics), otherwise both are kept."""
    left = left.dropna(subset=left_on)
    right = right.dropna(subset=right_on)
    if left_on == right_on:
        return left.merge(right, on=left_on)
    return left.merge(right, left_on=left_on, right_on=right_on)


def _keep_hidden(pdf: pd.DataFrame, keys: set[str]) -> pd.DataFrame:
    """``pdf`` without the hidden columns that are not in ``keys``."""
    drop = [c for c in pdf.columns if c.startswith("__") and c not in keys]
    return pdf.drop(columns=drop) if drop else pdf


def chain(
    name: str,
    relations: list[Relation],
    conds: list[tuple[str, str]],
    fakes: list[bool] | None = None,
) -> Join:
    """Build a chain join R_1 ⋈ R_2 ⋈ … with ``conds[i]`` between i and i+1."""
    if len(conds) != len(relations) - 1:
        raise ValueError("need exactly len(relations)-1 conditions")
    fakes = fakes or [False] * len(conds)
    node = Node(relations[-1])
    for i in range(len(relations) - 2, -1, -1):
        parent = Node(relations[i])
        parent.edges.append(Edge(conds[i][0], conds[i][1], node, fake=fakes[i]))
        node = parent
    return Join(name, node)

