"""Extended Olken join-size upper bound (§3.2) and Yannakakis reduction.

For a join tree rooted at R_root, each parent tuple matches at most
M_{child_col}(child) tuples along every edge, so

    |J| <= |R_root| * prod_over_edges M_{child_col}(child)

(fake edges contribute 1: a split row rejoins exactly its counterpart).
The paper's "extra linear search to zero the weights of non-joinable
tuples" is realized here as a full Yannakakis semijoin reduction: after
``reduce_join`` every remaining tuple participates in at least one join
result, so random walks never dead-end and the Olken bound tightens.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from .join_spec import Edge, Join, Node, Relation
from .stats import max_degree


def olken_bound(join: Join) -> int:
    """Upper bound on |join| from the root size and per-edge max degrees
    (read from the relations' collected frames and histograms)."""
    bound = len(join.root.relation.pdf)
    for _, edge in join.edges():
        if edge.fake:
            continue
        m = max_degree(edge.child.relation, edge.child_col)
        bound *= m
        if m == 0:
            return 0
    return int(bound)


def _reduce_node(node: Node) -> Node:
    """Bottom-up pass: keep only tuples with a match in every child subtree."""
    new_edges = []
    df = node.relation.df
    for e in node.edges:
        child = _reduce_node(e.child)
        new_edges.append(Edge(e.parent_col, e.child_col, child, e.fake))
        keys = child.relation.df.select(
            F.col(e.child_col).alias(e.parent_col)
        ).distinct()
        df = df.join(keys, on=e.parent_col, how="left_semi")
    return Node(Relation(node.relation.name, df), new_edges)


def _push_down(node: Node) -> Node:
    """Top-down pass: keep only child tuples matching the reduced parent."""
    new_edges = []
    for e in node.edges:
        keys = node.relation.df.select(
            F.col(e.parent_col).alias(e.child_col)
        ).distinct()
        child_df = e.child.relation.df.join(keys, on=e.child_col, how="left_semi")
        child = Node(Relation(e.child.relation.name, child_df), e.child.edges)
        new_edges.append(Edge(e.parent_col, e.child_col, _push_down(child), e.fake))
    return Node(node.relation, new_edges)


def reduce_join(join: Join, cache: bool = True) -> Join:
    """Full reducer: semijoin bottom-up then top-down (Yannakakis).

    The result is an equivalent join in which every tuple of every
    relation extends to at least one full join result.
    """
    reduced = Join(join.name, _push_down(_reduce_node(join.root)))
    if cache:
        for n in reduced.nodes():
            n.relation.df.cache()
    return reduced
