"""The package's own source: every module-level name is used or exported."""

import ast
from pathlib import Path

import poisson_mac

SRC = Path(poisson_mac.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """(name, line) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def _used_names(tree):
    """Names read, reached as attributes or imported anywhere in tree, and the
    strings of its __all__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (elt.value for elt in node.value.elts)


def test_every_module_level_name_is_referenced_or_exported():
    trees = _trees()
    used = {name for tree in trees.values() for name in _used_names(tree)}
    unused = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, unused
