"""Every module-level function and class in the package has a caller, every
public class member is named by package code, and every module-level import
is named by its module.

A definition passes when another module of the package names it or its own
module uses it beyond the definition; ``__init__.py``'s re-exports and
``__all__`` do not count as uses.  The only exceptions are the library entry
points that the README documents and the test oracles below, each with its
reason.  A public method, property or dataclass field passes when package
code reads it, outside its own body, from an expression that holds its class
(see ``_Owners``), or when it is listed below with its reason; a keyword
argument sets a member and does not count, and a read whose receiver's class
the source does not state counts for no class.
No linter is part of the toolchain, so the import check lives here too.
The benchmark imports package names from their modules, and its tracer wraps
them by ``getattr``; both must resolve.
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
    "residues_from_roots",
    "noise_stream",
}

# References the engine is tested against that only tests and the benchmark
# call; the other oracles live in tests/helpers.py.
TEST_ORACLES = {
    "ltt_apply_dense": "dense Toeplitz product that TestStreamStep, TestNoiseStream, criterion 01 and the benchmark's noise check use",
    "comb_dense": "dense combined B factor the recursive streamer is tested against; the benchmark's oracle imports it",
}

# Public class members that no package code reads.
UNREAD_MEMBERS = {
    "SqrtApproxTerms.evaluate": "the approximant itself; criterion 05 and the lemma tests evaluate it",
    "_Parser.error": "argparse calls it on a usage error",
    "_Worker.run": "threading calls it on the worker thread",
    "OptResult.trace": "the per-iteration record the README documents for library users",
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


def _annotated_class(node):
    """The class an annotation names: ``C``, ``mod.C``, ``"C"`` or ``C | None``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        if isinstance(node.right, ast.Constant) and node.right.value is None:
            return _annotated_class(node.left)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


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


class _Owners:
    """Which package class an expression holds, where the source says so.

    ``self`` in a method holds its class; an annotated parameter, its
    annotation; a name bound to ``C(...)`` or to the result of a function or
    method with a return annotation, that class; ``x.f``, the annotation of
    field or property ``f`` of x's class.  Any other expression is unknown.
    """

    def __init__(self, trees):
        self.classes = {
            c.name: c for tree in trees.values() for c in tree.body if isinstance(c, ast.ClassDef)
        }
        returns = {}
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.returns is not None:
                    returns.setdefault(node.name, set()).add(_annotated_class(node.returns))
        # a name defined twice with different annotations resolves to neither
        self.returns = {name: cls.pop() for name, cls in returns.items() if len(cls) == 1}
        self.members = {}
        for c in self.classes.values():
            for name, node in _public_members(c):
                ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
                self.members[c.name, name] = ann and _annotated_class(ann)

    def of(self, expr, env):
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                return func.id if func.id in self.classes else self.returns.get(func.id)
            expr = func
        if isinstance(expr, ast.Attribute):
            return self.members.get((self.of(expr.value, env), expr.attr))
        return None

    def env(self, fn, cls):
        """Name -> class in function ``fn``, a method of ``cls`` or module-level."""
        env = {}
        for i, arg in enumerate(fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs):
            if i == 0 and cls is not None:
                env[arg.arg] = cls
            elif arg.annotation is not None:
                env[arg.arg] = _annotated_class(arg.annotation)
        for _ in range(2):  # a binding may read a name bound after it in walk order
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
                    owner = self.of(node.value, env)
                    if owner is not None:
                        env[node.targets[0].id] = owner
        return env


def _member_reads(trees):
    """(class, member) of each attribute read whose receiver's class is known.

    A keyword argument, as at construction, sets a member and is not a read,
    and a member's reads inside its own body do not count.
    """
    owners = _Owners(trees)
    reads = Counter()
    for tree in trees.values():
        scopes = [(fn, None) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        scopes += [
            (fn, cls.name)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
        ]
        for fn, cls in scopes:
            env = owners.env(fn, cls)
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    owner = owners.of(node.value, env)
                    if owner is not None and (owner, node.attr) != (cls, fn.name):
                        reads[owner, node.attr] += 1
    return reads


def test_every_public_class_member_is_named_or_listed():
    trees = _package_trees()
    reads = _member_reads(trees)
    unread = {
        f"{cls.name}.{name}"
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for name, _ in _public_members(cls)
        if not reads[cls.name, name]
    }
    # a stale entry (deleted, or now read) fails as well
    assert unread == set(UNREAD_MEMBERS)


def test_member_reads_resolve_to_their_owner():
    src = """
class A:
    size: int
    def grow(self) -> int:
        return self.size + self.grow()
class B:
    size: int
    link: A
def make() -> B:
    return B(size=1, link=A(size=2))
def use(b: B, args):
    a = make().link
    return b.size + a.size + args.grow
"""
    reads = _member_reads({"m.py": ast.parse(src)})
    # A.grow is read only in its own body and by an unknown receiver
    assert reads == Counter({("A", "size"): 2, ("B", "size"): 1, ("B", "link"): 1})


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


def test_benchmark_imports_resolve():
    missing = []
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bltnoise"):
                module = importlib.import_module(node.module)
                missing += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert missing == []


def test_one_integer_rule():
    # params._int_arg words every integer check; a module with a message of
    # its own has grown a second rule
    others = sorted(
        p.name
        for p in PACKAGE.glob("*.py")
        if p.name != "params.py" and "must be an integer" in p.read_text(encoding="utf-8")
    )
    assert others == []
