"""Spark generates and hands over relations, and nothing else: no core
algorithm builds Spark column expressions."""
import ast
from pathlib import Path

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
