"""No dead helpers: every top-level function, class and constant of
`src/rleval` is read somewhere in the package outside its own definition,
or is kept in the allowlist below for a stated reason."""

import ast
from pathlib import Path

import rleval

PACKAGE = Path(rleval.__file__).parent

# name -> why it stays although no module of the package reads it.
KEPT = {}


def _definitions(tree):
    """(name, node) for each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _unread_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    unread = set()
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            outside = [
                (m, line) for m, line in reads.get(name, ())
                if not (m == module and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unread.add(f"{module[:-3]}.{name}")
    return unread


def test_every_top_level_name_is_read():
    unread = _unread_names()
    assert sorted(unread - set(KEPT)) == []
    # an allowlisted name that the package reads again leaves the list
    assert sorted(set(KEPT) - unread) == []
