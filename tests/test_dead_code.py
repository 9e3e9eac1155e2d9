"""Every module-level function and class in the package has a caller.

A definition passes when another module of the package names it, its own
module uses it beyond the definition, or ``bltnoise.__all__`` exports it.
The only exceptions are the test oracles below, each with its reason.
"""

import ast
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
