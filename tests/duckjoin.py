"""DuckDB, the test oracle for join trees: SQL read off a tree and run over
its relations' collected frames.

``count`` is the join's bag size (``COUNT(*)``), ``rows`` its distinct
value tuples, ``members`` a candidate-by-join membership matrix and
``DuckJoins.from_where`` the ``FROM … WHERE`` clause the others share.
``assert_equivalent`` checks a pandas result against hand-written SQL.
"""
import duckdb
import numpy as np
import pandas as pd


class DuckJoins:
    """One DuckDB connection, closed on leaving a ``with`` block; every
    frame is registered once."""

    def __init__(self):
        self.con = duckdb.connect()
        self._tables: dict[int, tuple[str, pd.DataFrame]] = {}

    def table(self, pdf: pd.DataFrame) -> str:
        if id(pdf) not in self._tables:
            name = f"r{len(self._tables)}"
            self.con.register(name, pdf)
            self._tables[id(pdf)] = (name, pdf)  # keeps the frame alive
        return self._tables[id(pdf)][0]

    def from_where(self, join, frames=None) -> tuple[dict[str, str], str]:
        """``join``'s value columns, each qualified by the first node that
        holds it, and its ``FROM … WHERE`` clause. Node k of ``join.nodes()``
        reads ``frames[k]`` (default: its relation's collected frame)."""
        nodes = join.nodes()
        frames = frames if frames is not None else [n.relation.pdf for n in nodes]
        alias = {id(n): f"t{k}" for k, n in enumerate(nodes)}
        cols: dict[str, str] = {}
        for n in nodes:
            for c in n.relation.cols:
                cols.setdefault(c, f'{alias[id(n)]}."{c}"')
        tabs = ", ".join(f"{self.table(f)} {alias[id(n)]}" for n, f in zip(nodes, frames))
        conds = " AND ".join(
            f'{alias[id(p)]}."{e.parent_col}" = {alias[id(e.child)]}."{e.child_col}"'
            for p, e in join.edges()
        )
        return cols, f"FROM {tabs} WHERE {conds or 'TRUE'}"

    def count(self, join, frames=None) -> int:
        _, fw = self.from_where(join, frames)
        return self.con.execute(f"SELECT count(*) {fw}").fetchone()[0]

    def rows(self, join, frames=None) -> pd.DataFrame:
        cols, fw = self.from_where(join, frames)
        select = ", ".join(f'{q} AS "{c}"' for c, q in cols.items())
        return self.con.execute(f"SELECT DISTINCT {select} {fw}").df()

    def members(self, candidates: pd.DataFrame, joins) -> np.ndarray:
        """m[i, j] = candidates.iloc[i] ∈ joins[j]: an ``EXISTS`` per join
        that matches every value column with ``IS NOT DISTINCT FROM``, so a
        null payload matches a null, as in a ``GROUP BY``."""
        cand = self.table(candidates.reset_index(drop=True).assign(__i=np.arange(len(candidates))))
        tests = []
        for j, join in enumerate(joins):
            cols, fw = self.from_where(join)
            same = " AND ".join(f'{q} IS NOT DISTINCT FROM c."{c}"' for c, q in cols.items())
            tests.append(f"EXISTS (SELECT 1 {fw} AND {same}) AS m{j}")
        m = self.con.execute(f"SELECT {', '.join(tests)} FROM {cand} c ORDER BY c.__i").fetchnumpy()
        return np.column_stack([np.asarray(v, dtype=bool) for v in m.values()])

    def __enter__(self) -> "DuckJoins":
        return self

    def __exit__(self, *exc) -> None:
        self.con.close()


def count(join, frames=None) -> int:
    """|join| as DuckDB counts it: ``COUNT(*)``, duplicates included."""
    with DuckJoins() as db:
        return db.count(join, frames)


def rows(join, frames=None) -> pd.DataFrame:
    """The join's distinct value tuples, as DuckDB computes them."""
    with DuckJoins() as db:
        return db.rows(join, frames)


def members(candidates: pd.DataFrame, joins) -> np.ndarray:
    """DuckDB's candidate-by-join membership matrix."""
    with DuckJoins() as db:
        return db.members(candidates, joins)


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(got: pd.DataFrame, sql: str, **tables: pd.DataFrame) -> None:
    """Run ``sql`` in DuckDB over the frames ``tables`` and assert that its
    rows equal ``got`` in any row and column order. Alias every output
    column identically on both sides and project to scalar columns."""
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)
