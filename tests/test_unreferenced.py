"""Guard: every function and class in ``src/kggan`` has a caller there.

A definition that only tests reach is dead weight for the program: the
tests pin behaviour nothing else uses. Names are matched by spelling, so
any reference anywhere in the package (a call, an attribute, an import)
counts, except one inside the definition itself. Dunder methods are called
by the interpreter, and ``cli.main`` by the ``kggan`` console script.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kggan"
EXEMPT = {"cli.main"}


def _definitions(tree):
    """(qualified name, node) of each module-level def and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _names(node):
    """How often each name is spelled in ``node``: names, attributes, imports."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            counts[sub.name] += 1
    return counts


def unreferenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in sorted(trees.items()):
        for qualname, node in _definitions(tree):
            name = node.name
            if f"{module}.{qualname}" in EXEMPT or (name.startswith("__") and name.endswith("__")):
                continue
            # a definition never spells its own name, only its body can
            if everywhere[name] == _names(node)[name]:
                found.append(f"{module}.{qualname}")
    return found


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced() == []
