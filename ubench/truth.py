"""Ground truth for the benchmark's correctness checks, computed by DuckDB.

The program's ``MembershipIndex`` and ``full_join_union`` are what is being
measured, so the checks never call them: DuckDB re-joins the same base
relations with SQL generated from each join tree and derives the union, its
atoms (for each distinct output tuple, the set of joins that produce it) and
every |J_j| / |U| ratio from that.
"""
from __future__ import annotations

import math

import duckdb
import pandas as pd


def join_sql(join, cols: list[str]) -> str:
    """``SELECT DISTINCT cols`` of one join, read off its tree.

    Each node gets its own alias, so a column shared by two relations of
    one join (a USING key of a vertical split) stays unambiguous. Joins of
    one union list their value columns in different orders; ``cols`` fixes
    one order so that the joins' rows line up.
    """
    nodes = join.nodes()
    alias = {id(n): f"t{i}" for i, n in enumerate(nodes)}
    owner: dict[str, str] = {}
    for n in nodes:
        for c in n.relation.cols:
            owner.setdefault(c, alias[id(n)])
    select = ", ".join(f'{owner[c]}."{c}" AS "{c}"' for c in cols)
    tables = ", ".join(f'"{n.relation.name}" {alias[id(n)]}' for n in nodes)
    conds = [
        f'{alias[id(p)]}."{e.parent_col}" = {alias[id(e.child)]}."{e.child_col}"'
        for p, e in join.edges()
    ]
    where = f" WHERE {' AND '.join(conds)}" if conds else ""
    return f"SELECT DISTINCT {select} FROM {tables}{where}"


class Truth:
    """The union of ``joins`` over ``frames`` (relation name → pandas)."""

    def __init__(self, joins, frames: dict[str, pd.DataFrame], temp_dir: str | None = None):
        self.names = [j.name for j in joins]
        self.cols = joins[0].value_cols
        config = {"temp_directory": temp_dir} if temp_dir else {}
        self.con = duckdb.connect(config=config)
        for name, pdf in frames.items():
            self.con.register(name, pdf)
        tagged = " UNION ALL ".join(
            f"SELECT *, {i} AS __jid FROM ({join_sql(j, self.cols)})" for i, j in enumerate(joins)
        )
        self._collist = ", ".join(f'"{c}"' for c in self.cols)
        self.con.execute(
            f"CREATE TABLE u AS SELECT {self._collist}, list_sort(list(__jid)) AS mem "
            f"FROM ({tagged}) GROUP BY {self._collist}"
        )
        rows = self.con.execute("SELECT mem, count(*) FROM u GROUP BY mem").fetchall()
        self.atoms = {frozenset(self.names[i] for i in mem): int(c) for mem, c in rows}
        self.union = sum(self.atoms.values())
        self.sizes = {
            j: sum(c for s, c in self.atoms.items() if j in s) for j in self.names
        }
        self.ratios = {j: s / self.union for j, s in self.sizes.items()}

    def close(self) -> None:
        self.con.close()

    def check_sample(self, samples: pd.DataFrame, n: int) -> str | None:
        """None if ``samples`` holds exactly ``n`` rows, all in the union."""
        if len(samples) != n:
            return f"returned {len(samples)} rows, asked for {n}"
        if list(samples.columns) != self.cols:
            return f"columns {list(samples.columns)} differ from {self.cols}"
        self.con.register("s", samples)
        try:
            outside = self.con.execute(
                f"SELECT count(*) FROM s ANTI JOIN u USING ({self._collist})"
            ).fetchone()[0]
        finally:
            self.con.unregister("s")
        return f"{outside} of {n} rows are not in the union" if outside else None

    def check_atoms(self, atoms: dict[frozenset, int]) -> str | None:
        """None if ``atoms`` equal the union's atoms exactly."""
        if dict(atoms) != self.atoms:
            return f"atoms {dict(atoms)} differ from {self.atoms}"
        return None

    def ratio_error(self, ratios: dict[str, float]) -> float:
        """Mean absolute error of estimated |J_j| / |U| (Fig 4a/5a)."""
        return sum(abs(ratios[j] - self.ratios[j]) for j in self.names) / len(self.names)

    def check_estimate(self, est) -> str | None:
        """None if a ``WarmupEstimate``'s join sizes are right for its method.

        EW sizes are exact, so they must equal the true |J_j|; EO sizes are
        Olken upper bounds, so none may be below it; random-walk sizes are
        Horvitz-Thompson estimates, so they must be finite and positive.
        Every |J_j| / |U| must lie in [0, 1]."""
        sizes = est.sizes
        if est.method == "hist-ew":
            bad = {j: s for j, s in sizes.items() if s != self.sizes[j]}
            what = f"EW sizes differ from {self.sizes}"
        elif est.method == "hist-eo":
            bad = {j: s for j, s in sizes.items() if not s >= self.sizes[j]}
            what = f"EO sizes below {self.sizes}"
        else:
            bad = {j: s for j, s in sizes.items() if not (math.isfinite(s) and s > 0)}
            what = "sizes not finite and positive"
        if bad:
            return f"{est.method}: {what}: {bad}"
        bad = {j: r for j, r in est.ratios.items() if not (math.isfinite(r) and 0 <= r <= 1)}
        return f"{est.method}: ratios out of [0, 1]: {bad}" if bad else None
