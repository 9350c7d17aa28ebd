"""Every top-level function and every non-dunder method of the package is
reached from the package itself: code that only tests call belongs in the
tests.  Importing the CLI loads no standard module a verify run does not
use."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaudual"

NOT_REACHED = {
    # public entry point, and bench/tracer.py wraps matrices.det by name
    "det",
}

IMPORTS_NOT_USED = {
    # bench/test_bench.py checks that the tracer wraps these bindings
    "gaudin.py:solve_linear",
    "cyclotomic.py:_perm_expansion",
}

METHODS_NOT_REACHED = {
    # bench/tracer.py wraps RatFunc.invert by name
    "RatFunc.invert",
}


def _references(tree: ast.AST) -> Counter:
    """How often each name is used in tree, as a name or an attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _attributes(tree: ast.AST) -> Counter:
    """How often each name is used in tree as an attribute."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _package_trees() -> dict:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def unreferenced_functions(exempt=NOT_REACHED) -> list[str]:
    trees = _package_trees()
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # a recursive call inside the function's own body does not count
            outside = used[node.name] - _references(node)[node.name]
            if not outside and node.name not in exempt:
                unused.append(f"{name}:{node.name}")
    return unused


def unreferenced_methods(exempt=METHODS_NOT_REACHED) -> list[str]:
    trees = _package_trees()
    used = sum((_attributes(tree) for tree in trees.values()), Counter())
    unused = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or node.name.startswith("__") and node.name.endswith("__")):
                    continue
                # a recursive call inside the method's own body does not count
                outside = used[node.name] - _attributes(node)[node.name]
                if not outside and f"{cls.name}.{node.name}" not in exempt:
                    unused.append(f"{name}:{cls.name}.{node.name}")
    return unused


def unused_imports(exempt=IMPORTS_NOT_USED) -> list[str]:
    """Top-level imports of a package module that the module never uses;
    __init__.py imports to re-export and is not parsed."""
    unused = []
    for name, tree in _package_trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and f"{name}:{bound}" not in exempt:
                    unused.append(f"{name}:{bound}")
    return unused


def test_every_top_level_function_is_referenced_in_the_package():
    assert unreferenced_functions() == []


def test_every_method_is_referenced_in_the_package():
    assert unreferenced_methods() == []


def test_every_top_level_import_is_used():
    assert unused_imports() == []


def test_every_exemption_is_still_needed():
    # an exemption whose name the package now reaches or uses is stale
    assert {f.split(":")[1] for f in unreferenced_functions(exempt=())} == NOT_REACHED
    assert {m.split(":")[1] for m in unreferenced_methods(exempt=())} == METHODS_NOT_REACHED
    assert set(unused_imports(exempt=())) == IMPORTS_NOT_USED


# dataclasses pulls in inspect, ast, dis and tokenize; traceback pulls in
# linecache and tokenize; a run that does not crash needs none of them
NOT_LOADED_AT_START = {"dataclasses", "inspect", "traceback"}


def test_importing_the_cli_loads_no_module_a_verify_run_does_not_use():
    # a fresh interpreter, since pytest itself has imported inspect; site may
    # preload modules, so only what the import adds counts
    probe = ("import sys; before = set(sys.modules); import gaudual.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    loaded = set(proc.stdout.split())
    assert "gaudual.cli" in loaded
    assert sorted(loaded & NOT_LOADED_AT_START) == []
