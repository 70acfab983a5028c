"""Tuple-in-join membership oracle (§6.2's "queries with key", batched).

A candidate output tuple u belongs to join J iff (a) all of J's join
conditions hold as column equalities inside u, and (b) u's projection onto
every base relation of J exists in that relation. With full-schema outputs
(the paper's setting — all joins share one output schema), (a) + (b) is an
exact membership test.

Two implementations:

* :func:`member_ids` — reference path: one ``left_semi`` join per relation
  (a Spark job per probe batch). Exact; used by tests as the oracle.
* :class:`MembershipIndex` — production path, the analogue of the paper's
  in-memory hash tables over relations: the distinct rows of each distinct
  relation, indexed once from the frame the walk plans collect, so a probe
  is an exact lookup of each candidate's projection on the driver, with no
  Spark job.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from .join_spec import Join, Relation

CAND = "__cand"


def member_ids(
    spark: SparkSession, candidates: pd.DataFrame, join: Join
) -> np.ndarray:
    """Reference membership via semijoins. Indices into ``candidates``."""
    pdf = candidates.reset_index(drop=True).copy()
    pdf[CAND] = np.arange(len(pdf), dtype=np.int64)
    df = spark.createDataFrame(pdf)
    for a, b in join.condition_pairs():
        df = df.filter(F.col(a) == F.col(b))
    for rel in join.relations():
        cols = rel.cols
        df = df.join(rel.df.select(*cols).dropDuplicates(), on=cols, how="left_semi")
    ids = df.select(CAND).toPandas()[CAND].to_numpy()
    return np.sort(ids)


class MembershipIndex:
    """The distinct visible-column rows of every relation of ``joins``,
    indexed once per distinct relation (shared relations are indexed once)."""

    def __init__(self, joins: list[Join]):
        self.joins = joins
        self.rows: dict[Relation, pd.MultiIndex] = {}
        for join in joins:
            for rel in join.relations():
                if rel not in self.rows:
                    self.rows[rel] = pd.MultiIndex.from_frame(rel.pdf[rel.cols]).unique()

    def matrix(self, candidates: pd.DataFrame) -> np.ndarray:
        """Boolean matrix m[i, j] = candidates.iloc[i] ∈ joins[j]."""
        probes: dict[tuple[str, ...], pd.MultiIndex] = {}  # one per column set
        found = {}
        for rel, rows in self.rows.items():
            cols = tuple(rel.cols)
            if cols not in probes:
                probes[cols] = pd.MultiIndex.from_frame(candidates[list(cols)])
            found[rel] = rows.get_indexer(probes[cols]) >= 0
        m = np.ones((len(candidates), len(self.joins)), dtype=bool)
        for j, join in enumerate(self.joins):
            for a, b in join.condition_pairs():
                m[:, j] &= candidates[a].to_numpy() == candidates[b].to_numpy()
            for rel in join.relations():
                m[:, j] &= found[rel]
        return m

    def min_index(self, candidates: pd.DataFrame) -> np.ndarray:
        """f(u) = index of the first join containing each candidate (the
        deterministic min-index cover of §3.1); -1 if in none."""
        return _first_join(self.matrix(candidates))


def _first_join(m: np.ndarray) -> np.ndarray:
    out = np.full(len(m), -1, dtype=np.int64)
    any_row = m.any(axis=1)
    out[any_row] = m[any_row].argmax(axis=1)
    return out


def membership_matrix(
    spark: SparkSession, candidates: pd.DataFrame, joins: list[Join]
) -> np.ndarray:
    """Reference m[i, j] = candidates.iloc[i] ∈ joins[j], via semijoins."""
    m = np.zeros((len(candidates), len(joins)), dtype=bool)
    for j, join in enumerate(joins):
        m[member_ids(spark, candidates, join), j] = True
    return m


def min_join_index(
    spark: SparkSession, candidates: pd.DataFrame, joins: list[Join]
) -> np.ndarray:
    """Reference f(u), via semijoins."""
    return _first_join(membership_matrix(spark, candidates, joins))
