"""Only what the program uses stays in src/.

Every top-level function, class and constant of src/beattylab, and every
method that is not a dunder, must be referenced by the package's own code,
be exported in beattylab.__all__, or be named in ALLOWED with its reason.
A reference is a name read (ast.Name in load context), an attribute
(ast.Attribute) or an import from a module other than __init__.py, whose
imports only re-export; docstrings and comments do not count.  A kernel
that only the tests call belongs in tests/oracles.py.
"""

from __future__ import annotations

import ast
from pathlib import Path

import beattylab

SRC = Path(beattylab.__file__).resolve().parent

# kept in src/ on purpose although no code in src/ calls them
ALLOWED = {
    "QuadraticReal.sign": "field API next to compare and floor",
    "QuadraticReal.frac": "field API: the README lists the fractional part among the field operations",
    "build_parser._Parser.error": "argparse calls it on every usage error; src/ never does",
}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _referenced(trees: dict[str, ast.Module]) -> set[str]:
    used = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name != "__init__.py":
                used.update(alias.name for alias in node.names)
    return used


def _methods(cls: ast.ClassDef, prefix: str):
    for member in cls.body:
        if isinstance(member, ast.FunctionDef):
            yield member.name, f"{prefix}{cls.name}.{member.name}"


def _definitions(tree: ast.Module):
    """(name, qualified name) of each top-level definition and each non-dunder method.

    The methods of a class defined in a top-level function's body count
    too, qualified by that function's name.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        elif isinstance(node, ast.Assign):
            yield from ((t.id, t.id) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.target.id
        if isinstance(node, ast.ClassDef):
            yield from _methods(node, "")
        elif isinstance(node, ast.FunctionDef):
            for inner in node.body:
                if isinstance(inner, ast.ClassDef):
                    yield from _methods(inner, f"{node.name}.")


def test_every_definition_is_used_exported_or_allowed():
    trees = _trees()
    used = _referenced(trees) | set(beattylab.__all__)
    unused = [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        for name, qualified in _definitions(tree)
        if not _dunder(name) and name not in used and qualified not in ALLOWED
    ]
    assert unused == [], "move test-only code to tests/oracles.py, or delete it"


def test_the_allowlist_names_only_definitions_nothing_uses():
    # a name that the program starts to use, or that is gone, leaves the list
    trees = _trees()
    defined = {qualified: name for tree in trees.values() for name, qualified in _definitions(tree)}
    used = _referenced(trees) | set(beattylab.__all__)
    assert sorted(q for q in ALLOWED if q not in defined or defined[q] in used) == []
