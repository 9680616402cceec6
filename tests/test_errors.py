"""Invariant checks are explicit raises, which also run under python -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((SRC / "tropgroups").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def imported_modules(path: Path) -> set[str]:
    """The names of the tropgroups modules that the module imports anywhere."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "tropgroups":
                    continue
                module = module.removeprefix("tropgroups").lstrip(".")
            # from .x import y names x; from . import x, y names x and y
            out.update([module.split(".")[0]] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("tropgroups."))
    return out


def test_module_imports_form_no_cycle():
    graph = {path.stem: imported_modules(path) for path in (SRC / "tropgroups").glob("*.py")}
    graph = {name: imports & graph.keys() for name, imports in graph.items()}
    # a module is placed once everything it imports is; one never placed lies on
    # a cycle or imports one that does
    placed: set = set()
    while ready := {name for name, imports in graph.items() if name not in placed and imports <= placed}:
        placed |= ready
    assert placed == graph.keys(), f"import cycle among {sorted(graph.keys() - placed)}"
    # the Weyl group is the lower layer: it is built from its generators alone
    assert graph["weyl"] & {"rootdata", "groups"} == set()


def public_definitions(tree: ast.Module):
    """The public functions and classes of a module, and the public methods of
    its classes, as (qualified name, definition node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def test_every_public_name_is_called_or_exported():
    """A public name of the library is exported from the package, or some code
    in src/ outside its own definition refers to it (a name or an attribute of
    that name, so a method is found by its name alone)."""
    package = SRC / "tropgroups"
    init = ast.parse((package / "__init__.py").read_text())
    exported = {a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    references = {}  # name -> [(path, line)]
    definitions = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        if path.parent == package:
            definitions += [(path, name, node) for name, node in public_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append((path, node.lineno))
    orphans = []
    for path, name, node in definitions:
        inside = range(node.lineno, node.end_lineno + 1)
        called = any(p != path or line not in inside for p, line in references.get(name.split(".")[-1], ()))
        if name not in exported and not called:
            orphans.append(f"{path.stem}.{name}")
    assert orphans == []


def test_every_dataclass_is_frozen():
    """Every @dataclass of the library is a value: frozen=True, so no field of
    a hashed instance can be reassigned."""
    found, mutable = [], []
    for path in sorted((SRC / "tropgroups").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                if ast.unparse(call.func if call else deco) not in ("dataclass", "dataclasses.dataclass"):
                    continue
                found.append(node.name)
                keywords = {k.arg: ast.unparse(k.value) for k in call.keywords} if call else {}
                if keywords.get("frozen") != "True":
                    mutable.append(f"{path.stem}.{node.name}")
    assert mutable == []
    assert "TropGroupElement" in found and len(found) > 10


# (module, function, name) of the writes into another object that are allowed:
# main fills in the argparse namespace it parsed
FOREIGN_WRITES_ALLOWED = {("cli", "main", "args")}


def foreign_writes(tree: ast.Module, module: str):
    """(module, function, name, line, target) for each assignment whose target
    is an attribute, or an item of an attribute, of an object other than self."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.Attribute, ast.Subscript)) and isinstance(child.ctx, ast.Store):
                base = child
                while isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Attribute):
                    owner = ast.unparse(base.value)
                    if owner != "self":
                        out.append((module, function, owner, child.lineno, ast.unparse(child)))
            visit(child, function)

    visit(tree, None)
    return out


def test_no_module_writes_into_another_object():
    """Each cached datum has one owner that builds and keeps it: no code writes
    an attribute, or an item of an attribute, of an object other than self."""
    found = []
    for path in sorted((SRC / "tropgroups").glob("*.py")):
        for module, function, owner, line, target in foreign_writes(ast.parse(path.read_text(), str(path)), path.stem):
            if (module, function, owner) not in FOREIGN_WRITES_ALLOWED:
                found.append(f"{module}.py:{line} in {function}: {target}")
    assert found == []


# a gauge_transform that misses b must make the witness self-check raise
OPTIMIZED_SELF_CHECK = """
from tropgroups import circles as ci
from tropgroups.errors import InvariantError
from tropgroups.groups import build_group

g = build_group("GL", 2)
a = ci.cocycle(g, (1, 0), (0, 0), 1, 1)
b = ci.gauge_transform(a, (1, -1), (0, 0), 0)
real = ci.gauge_transform
ci.gauge_transform = lambda c, k, beta, v: real(c, (0, 0), beta, v)
try:
    ci.isomorphism_witness(a, b)
except InvariantError as exc:
    print("raised:", exc)
"""


def test_witness_self_check_runs_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SELF_CHECK], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: witness")
