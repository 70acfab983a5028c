"""Column statistics used by the estimators, read from relation histograms.

These are the "histograms DBMSs already maintain" of §5: per-value degree
histograms of join attributes, their maxima and averages. Each histogram
is built once per relation and column on the driver
(:meth:`Relation.degrees <repro.core.join_spec.Relation.degrees>`, over the
collected frame), so no statistic starts a Spark job and nothing
materializes a join.

Null semantics are SQL's: a null value is one group of its own in a
histogram (so it counts for the maximum and mean degree), and joins of
histograms drop it (null joins nothing).
"""
from __future__ import annotations

import pandas as pd

from .join_spec import Relation


def max_degree(rel: Relation, col: str) -> int:
    """Maximum value frequency M_col(rel) (Olken's M); 0 when empty."""
    h = rel.degrees(col)
    return int(h.max()) if len(h) else 0


def avg_degree(rel: Relation, col: str) -> float:
    """Average value frequency (used to tighten Theorem 4 when full
    histograms are available); 0 when empty."""
    h = rel.degrees(col)
    return float(h.mean()) if len(h) else 0.0


def pair_degree_product(
    rel1: Relation, col1: str, rel2: Relation, col2: str
) -> pd.Series:
    """Per-value count of joinable (t1, t2) pairs: d(v, rel1) * d(v, rel2).

    This is the exact per-value size of rel1 ⋈ rel2 on col1 = col2, computed
    from the two histograms — the K(1) building block of Theorem 4.
    Returns ``pairs`` indexed by the joinable values v.
    """
    d1, d2 = rel1.degrees(col1).align(rel2.degrees(col2), join="inner")
    pairs = (d1 * d2).rename_axis("v").rename("pairs")
    return pairs[pairs.index.notna()]


def self_degree(rel: Relation, col: str) -> pd.Series:
    """Per-value pair count of a *fake* first edge: each row matches only
    its own split counterpart, so the pair count at value v is d(v, rel).
    Returns ``pairs`` indexed by v: the degree histogram itself."""
    return rel.degrees(col).rename_axis("v").rename("pairs")
