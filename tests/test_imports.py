"""Every name a module of the package imports is used in that module, every
top-level function or class of the package is used by some module of it, and
every annotation names something its module binds."""

import ast
import importlib
import inspect
import typing
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


# Top-level definitions no module of the package uses, each kept for a reason.
UNREFERENCED = {
    ("edge", "chamfer_manhattan"): "acceptance criterion 4 gates it",
    ("fpm", "mine_frequent_family"): "acceptance criteria 1-2 unpack its 4-tuple",
    ("fpm", "with_class_items"): "acceptance criterion 2 mines its rows; perfbench traces it",
    ("metrics", "precision"): "acceptance criterion 6 gates it",
    ("metrics", "recall"): "acceptance criterion 6 gates it",
    ("prep", "align_peak"): "perfbench/trace.py spans it by name",
    ("prep", "open_"): "acceptance criterion 5 gates it",
}


def referenced_names(tree):
    """Names a tree reads, as bare names or as attributes of something."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def unreferenced_definitions(trees):
    """(module, name) of each top-level function or class that no tree reads."""
    used = set().union(*map(referenced_names, trees.values()))
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    }


def test_unreferenced_definitions_detected():
    trees = {"a": ast.parse("def f(): pass\nclass C: pass\ndef g(): return f"),
             "b": ast.parse("import a\na.C()")}
    assert unreferenced_definitions(trees) == {("a", "g")}


def test_every_definition_is_used():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(trees) == set(UNREFERENCED)


# perfbench/trace.py wraps functions of the package by "module.name"; a renamed or
# moved one would only fail perfbench's own tests, so it is checked here without
# importing the harness.
TRACE = PACKAGE.parents[1] / "perfbench" / "trace.py"


def traced_names(tree):
    """The "module.name" strings of the SPANNED and HOT tuples assigned in a module."""
    return [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in ("SPANNED", "HOT") for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]


def untraceable(names, trees):
    """The names in `names` that are not a top-level function of their module."""
    defs = {
        module: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for module, tree in trees.items()
    }
    return [q for q in names if q.partition(".")[2] not in defs.get(q.partition(".")[0], ())]


def test_untraceable_names_detected():
    trace = ast.parse('SPANNED = ("a.f", "a.C", "b.g")\nHOT = ("a.h",)\nOTHER = ("a.x",)')
    trees = {"a": ast.parse("def f(): pass\nclass C: pass\ndef g(): pass")}
    assert traced_names(trace) == ["a.f", "a.C", "b.g", "a.h"]
    assert untraceable(traced_names(trace), trees) == ["a.C", "b.g", "a.h"]


def test_perfbench_traced_names_are_top_level_functions():
    names = traced_names(ast.parse(TRACE.read_text(), filename=str(TRACE)))
    assert "fpm.mine_mfi" in names and "fpm.itemset_support" in names
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert untraceable(names, trees) == []


# numpy loads only in the commands that read pixels. The modules those commands alone
# import (prep, edge, synth) import it at module level; raster and segment, which
# every command imports, import it only in the functions that need it.
LOCAL_NUMPY = ["raster.read_pgm", "segment.extract_regions", "segment.glcm_features"]


def imported_modules(node):
    """The modules an import statement names; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module or ""] if isinstance(node, ast.ImportFrom) else []


def local_numpy_imports(node, scope=()):
    """Dotted path of the function or class around each import of numpy inside one."""
    found = []
    for child in ast.iter_child_nodes(node):
        if scope and any(name.partition(".")[0] == "numpy" for name in imported_modules(child)):
            found.append(".".join(scope))
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        found += local_numpy_imports(child, scope + (child.name,) if named else scope)
    return found


def test_local_numpy_imports_detected():
    tree = ast.parse("import numpy\nclass C:\n    def f(self):\n        import numpy as np\n"
                     "def g():\n    from numpy.linalg import norm\n    import math\n")
    assert local_numpy_imports(tree) == ["C.f", "g"]


def test_numpy_is_imported_in_a_function_only_where_every_command_loads_the_module():
    found = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                   for name in local_numpy_imports(ast.parse(path.read_text(), filename=str(path))))
    assert found == LOCAL_NUMPY


def annotated(module):
    """("name", object) of each function and class defined in a module, and of each
    method, class method and property of those classes."""
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
            yield name, obj
            for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_annotated_objects_detected():
    found = dict(annotated(importlib.import_module("imgmine.segment")))
    assert {"Region", "Region.area", "extract_regions", "QuantizationModel.fit",
            "Transaction.__init__"} <= set(found)
    assert "NamedTuple" not in found and "Optional" not in found


def test_every_annotation_resolves():
    unresolved = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, obj in annotated(importlib.import_module(f"imgmine.{path.stem}")):
            try:
                typing.get_type_hints(obj)
            except (NameError, TypeError) as exc:
                unresolved.append(f"{path.stem}.{name}: {exc}")
    assert unresolved == []
