"""No algorithm depends on Spark: relations are pandas frames, no module
under ``repro/core`` builds Spark column expressions, the only pyspark
import in the package is ``Relation.df``'s, and no public operation
imports pyspark when it runs."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import repro
import repro.core


def _imports_spark_functions(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("pyspark.sql.functions") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("pyspark.sql.functions"):
                return True
            if node.module == "pyspark.sql" and any(a.name == "functions" for a in node.names):
                return True
    return False


def test_core_does_not_import_spark_functions():
    core = Path(repro.core.__file__).parent
    offenders = [
        p.name for p in sorted(core.glob("*.py")) if _imports_spark_functions(ast.parse(p.read_text()))
    ]
    assert offenders == []


def _pyspark_imports(tree: ast.Module) -> list[tuple[str | None, str]]:
    """Every pyspark import as (the dotted name of the class or function
    that holds it, None if it runs when the module is imported; module)."""
    found = []

    def visit(node: ast.AST, scope: str | None) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Import):
            found.extend((scope, a.name) for a in node.names if a.name.split(".")[0] == "pyspark")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pyspark":
            found.append((scope, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_repro_imports_pyspark_only_in_relation_df():
    """No module of the package imports pyspark at module level, and the
    one pyspark import left is inside ``Relation.df``."""
    pkg = Path(repro.__file__).parent
    found = {
        (p.relative_to(pkg).as_posix(), scope, module)
        for p in sorted(pkg.rglob("*.py"))
        for scope, module in _pyspark_imports(ast.parse(p.read_text()))
    }
    assert found == {("core/join_spec.py", "Relation.df", "pyspark.sql")}


_NO_PYSPARK = """
import sys

import numpy as np
import pandas as pd

from repro.core.cyclic import decompose_triangle, sample_cyclic
from repro.core.exact import full_join_union
from repro.core.histogram_union import auto_histogram_warmup
from repro.core.join_spec import Relation
from repro.core.online_union import online_union_sample
from repro.core.randomwalk_union import randomwalk_warmup
from repro.core.union_sampler import set_union_sample
from repro.experiments.tables import INSTANTIATIONS, prewarm
from repro.workloads import uq1, uq2, uq3

for build in (uq1, uq2, uq3):
    u = build(None, sf=0.002, seed=5).uctx
    prewarm(u)
    for warmup, sampler in INSTANTIATIONS:
        res = set_union_sample(u, 200, warmup=warmup, sampler=sampler, seed=19)
        assert len(res.samples) == 200 and res.rounds >= 1, (u.names, warmup)
    for method in ("eo", "ew"):
        auto_histogram_warmup(u, size_method=method)
    randomwalk_warmup(u, batch=200, max_samples=600, seed=20)
    assert len(online_union_sample(u, 100, reuse=True, seed=23).samples) == 100, u.names
    assert full_join_union(None, u.joins).union > 0, u.names

g = np.random.default_rng(5)
frames = [
    pd.DataFrame({a: g.integers(1, 5, 20), b: g.integers(1, 5, 20)})
    for a, b in ["ab", "bc", "ca"]
]
r1, r2, r3 = (Relation(f"r{i}", f) for i, f in enumerate(frames))
cj = decompose_triangle("tri", r1, r2, ("b", "b"), r3)
assert cj.size_bound() > 0
assert len(sample_cyclic(cj, 50, seed=6)) == 50

assert "pyspark" not in sys.modules, "an operation imported pyspark"
"""


def test_operations_never_import_pyspark():
    """Building UQ1–UQ3 and their indexes, the three instantiations of
    Algorithm 1, both warm-ups, ONLINE-UNION, FullJoinUnion and cyclic
    sampling run in a fresh interpreter without importing pyspark, so
    none of them can start a Spark job."""
    path = [str(Path(repro.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run(
        [sys.executable, "-c", _NO_PYSPARK], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
