"""No core algorithm depends on Spark: relations are pandas frames, and no
module under ``repro/core`` builds Spark column expressions or imports
pyspark at module level."""
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


def _module_level_pyspark(tree: ast.Module) -> list[str]:
    """pyspark imports that run when the module is imported (not those
    inside a function body)."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "pyspark"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pyspark":
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_core_does_not_import_pyspark_at_module_level():
    core = Path(repro.core.__file__).parent
    offenders = {
        p.name: found
        for p in sorted(core.glob("*.py"))
        if (found := _module_level_pyspark(ast.parse(p.read_text())))
    }
    assert offenders == {}
