"""Every module-level function and class in the package has a caller, every
public class member is named by package code, and every module-level import
is named by its module.

A definition passes when another module of the package names it or its own
module uses it beyond the definition; ``__init__.py``'s re-exports and
``__all__`` do not count as uses.  The only exceptions are the library entry
points that the README documents and the test oracles below, each with its
reason.  A public method, property or dataclass field passes when package
code names it, as an attribute or a keyword argument, outside its own body,
or when it is listed below with its reason.
No linter is part of the toolchain, so the import check lives here too.
The benchmark tracer wraps package names by ``getattr``; they must resolve.
"""

import ast
import importlib
import runpy
from collections import Counter
from pathlib import Path

import bltnoise

PACKAGE = Path(bltnoise.__file__).resolve().parent

# Exported for library users and documented in the README; no package code
# calls them.
LIBRARY_ENTRY_POINTS = {
    "recursive_stream",
    "blt_base_factory",
    "theorem2_params",
    "degree_for_error",
}

# Checks of the paper's lemmas, and the references the engine is tested
# against, that only tests call.
TEST_ORACLES = {
    "newman_error_bound": "closed-disc error bound of the sqrt(1-x) approximant",
    "rational_sqrt_free": "free-step approximant the unit-disc one is built from",
    "rational_sqrt_free_bound": "error bound of the free-step approximant",
    "stream_init": "one-row form the block engine is tested against",
    "stream_step": "one-row form the block engine is tested against; the benchmark tracer names it",
}

# Public class members that no package code names.
UNNAMED_MEMBERS = {
    "SqrtApproxTerms.evaluate": "the approximant itself; criterion 05 and the lemma tests evaluate it",
    "_Parser.error": "argparse calls it on a usage error",
}


def _package_trees():
    return {
        p.name: ast.parse(p.read_text(encoding="utf-8"))
        for p in PACKAGE.glob("*.py")
        if p.name != "__init__.py"
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
    trees = _package_trees()
    used = set().union(*map(_names_used, trees.values()))
    uncalled = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    }
    # a stale entry (deleted, or now called) fails as well
    assert uncalled == set(TEST_ORACLES) | LIBRARY_ENTRY_POINTS


def _member_names(node):
    """Attribute and keyword-argument names under ``node``, the two ways code
    names a member of a class."""
    named = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            named[sub.attr] += 1
        elif isinstance(sub, ast.keyword) and sub.arg:
            named[sub.arg] += 1
    return named


def _public_members(cls):
    """(name, node) of each public method, property and dataclass field."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, node


def test_every_public_class_member_is_named_or_listed():
    trees = _package_trees()
    named = sum(map(_member_names, trees.values()), Counter())
    unnamed = {
        f"{cls.name}.{name}"
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for name, node in _public_members(cls)
        if named[name] <= _member_names(node)[name]
    }
    # a stale entry (deleted, or now named) fails as well
    assert unnamed == set(UNNAMED_MEMBERS)


def test_library_entry_points_are_exported_and_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert LIBRARY_ENTRY_POINTS <= set(bltnoise.__all__)
    assert [name for name in sorted(LIBRARY_ENTRY_POINTS) if f"`{name}" not in readme] == []


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
