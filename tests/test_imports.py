"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "imgmine"

# cli imports segment.quantize without calling it: perfbench's trace test
# (perfbench/tests/test_bench_trace.py) checks that the tracer rebinds cli.quantize.
ALLOWED = {("cli", "quantize")}


def unused_imports(tree):
    """Names bound by import statements that no Name node in the tree reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_detected():
    tree = ast.parse("import os.path\nimport json as j\nfrom x import a, b as c\nprint(a, os)\n")
    assert unused_imports(tree) == {"j", "c"}


def test_every_imported_name_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 12
    unused = {
        (path.stem, name)
        for path in modules
        for name in unused_imports(ast.parse(path.read_text(), filename=str(path)))
    }
    assert unused == ALLOWED
