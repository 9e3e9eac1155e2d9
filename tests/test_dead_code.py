"""Every module-level function and class in the package has a caller, and
every module-level import is named by its module.

A definition passes when another module of the package names it, its own
module uses it beyond the definition, or ``bltnoise.__all__`` exports it.
The only exceptions are the test oracles below, each with its reason.
No linter is part of the toolchain, so the import check lives here too.
The benchmark tracer wraps package names by ``getattr``; they must resolve.
"""

import ast
import importlib
import runpy
from pathlib import Path

import bltnoise

PACKAGE = Path(bltnoise.__file__).resolve().parent

# Checks of the paper's lemmas that only tests call.
TEST_ORACLES = {
    "newman_error_bound": "closed-disc error bound of the sqrt(1-x) approximant",
    "rational_sqrt_free": "free-step approximant the unit-disc one is built from",
    "rational_sqrt_free_bound": "error bound of the free-step approximant",
}


def _names_used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_definition_is_used_exported_or_an_oracle():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    used = {module: _names_used(tree) for module, tree in trees.items()}
    uncalled = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in bltnoise.__all__ or any(node.name in u for u in used.values()):
                continue
            uncalled.add(node.name)
    # a stale oracle entry (deleted, or now called) fails as well
    assert uncalled == set(TEST_ORACLES)


def _module_imports(tree):
    """(bound name, line) of each module-level import but ``__future__``."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_every_module_level_import_is_named():
    # __init__.py is skipped: its imports are the package's re-exports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _module_imports(tree)
            if name not in names
        ]
    assert unused == []


def test_benchmark_tracer_names_resolve():
    # run_path compiles the source without writing bytecode next to it
    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))
    entries = tracing["TIMED"] + tracing["ITERATED"] + tracing["COUNTED"]
    missing = [
        f"{module}.{name}"
        for module, name, *_ in entries
        if not hasattr(importlib.import_module(f"bltnoise.{module}"), name)
    ]
    assert missing == []
