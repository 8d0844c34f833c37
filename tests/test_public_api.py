"""Every public name of the package is used by the package itself.

Public API that only tests use belongs in ``tests/`` (``oracles.py``),
so each public module-level function and class of ``src/pulsecmp``
must be referenced somewhere in ``src/pulsecmp`` outside its own
definition: as a name, an attribute, or a string (the package root's
lazy exports name theirs in strings). An import alone is no use.
"""

import ast
import glob
import os

import pytest

SOURCE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "pulsecmp")


def _modules() -> dict[str, ast.Module]:
    paths = sorted(glob.glob(os.path.join(SOURCE, "*.py")))
    assert paths
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), path)
    return trees


def _public_definitions(trees) -> list[tuple[str, ast.AST]]:
    return [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _references(tree: ast.AST, name: str, outside: ast.AST | None = None) -> int:
    inside = {id(node) for node in ast.walk(outside)} if outside is not None else set()
    count = 0
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            count += node.id == name
        elif isinstance(node, ast.Attribute):
            count += node.attr == name
        elif isinstance(node, ast.Constant):
            count += node.value == name
    return count


def test_every_public_definition_is_used_in_src():
    trees = _modules()
    unused = [
        f"{module}: {node.name}"
        for module, node in _public_definitions(trees)
        if not any(
            _references(tree, node.name, node if other == module else None)
            for other, tree in trees.items()
        )
    ]
    assert unused == []


@pytest.mark.parametrize(
    "source, unused",
    [
        # an import and a recursive call are no use
        ("from a import helper\ndef helper(n):\n    return helper(n - 1)\n", True),
        ("def helper():\n    pass\ndef main():\n    return helper()\n", False),
        ("__all__ = ['helper']\ndef helper():\n    pass\n", False),
        ("class Box:\n    pass\nx: 'int' = 0\ny = obj.Box\n", False),
    ],
)
def test_the_reference_rule(source, unused):
    tree = ast.parse(source)
    node = next(n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)))
    assert (_references(tree, node.name, node) == 0) is unused
