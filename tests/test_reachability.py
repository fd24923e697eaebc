"""Every function, class and method of the package is used by the program.

A name that only tests reach is a second API to keep working; this
guard stops one from growing back.  A name counts as used when code in
``src/``, ``scripts/`` or ``bench/`` loads it somewhere: as a name, as
an attribute, or as a string naming it for a ``getattr``-style lookup.
The package's ``__all__``, the bundled-fixture helpers and dunder
methods (called by the language itself) are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import parley
import parley.fixtures

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parley"
PROGRAM = (ROOT / "src", ROOT / "scripts", ROOT / "bench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each top-level function and class and each method."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    found = []
    for node in tree.body:
        if isinstance(node, defs):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found.extend((n.name, n.lineno) for n in node.body if isinstance(n, defs[:2]))
    return found


def _loads(tree: ast.Module) -> set[str]:
    """The names loaded, or spelt out whole as a string."""
    loads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            loads.add(node.value)
    return loads


def test_every_definition_is_reached_from_the_program():
    loads = set()
    for top in PROGRAM:
        for path in top.rglob("*.py"):
            loads |= _loads(_parse(path))
    exempt = set(parley.__all__) | set(vars(parley.fixtures))
    unreached = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in _definitions(_parse(path))
        if name not in loads
        and name not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unreached == [], "reached only from tests, or nowhere:\n" + "\n".join(unreached)
