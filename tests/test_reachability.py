"""Every function, class, method and field of the package is used by the program.

A name that only tests reach is a second API to keep working, and a
field nothing reads is state to keep right for nobody; these guards
stop either from growing back.  A definition counts as used when code in
``src/``, ``scripts/`` or ``bench/`` loads its name somewhere: as a name,
as an attribute, or as a string naming it for a ``getattr``-style
lookup.  The names an ``__all__`` lists do not count as uses, since
listing a name exports it without using it; the bundled-fixture helpers
and dunder methods (called by the language itself) are exempt.

A field is a dataclass or NamedTuple field, or an attribute an
``__init__`` assigns on ``self``.  It counts as read only when the
program loads it as an attribute other than to call ``add``,
``append``, ``extend`` or ``update`` on it or to store into one of its
items.

Names are matched bare, not per class, so a dead name that some other
definition shares still passes: ``Journal.owner`` (``ControlZone.owner``
is read) was found only by reading the code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import parley.fixtures

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parley"
PROGRAM = (ROOT / "src", ROOT / "scripts", ROOT / "bench")

#: calls that only write to the collection they are made on
WRITERS = frozenset({"add", "append", "extend", "update"})

#: (class, field) read only by a test oracle, with the oracle
ORACLE_FIELDS = {
    ("RoleInstance", "last_message"): "oracles.oracle_zone_coherent",
}


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
    """The names loaded, or spelt out whole as a string outside ``__all__``."""
    exports = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        for item in ast.walk(node.value)
    }
    loads = set()
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
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
    exempt = set(vars(parley.fixtures))
    unreached = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in _definitions(_parse(path))
        if name not in loads
        and name not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unreached == [], "reached only from tests, or nowhere:\n" + "\n".join(unreached)


def _is_record(node: ast.ClassDef) -> bool:
    """A ``@dataclass`` or a ``NamedTuple`` subclass."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)


def _fields(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, field, line) of each record field and ``__init__`` attribute."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if _is_record(node) and isinstance(stmt, ast.AnnAssign):
                found.append((node.name, stmt.target.id, stmt.lineno))
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for sub in ast.walk(stmt):
                    targets = getattr(sub, "targets", [getattr(sub, "target", None)])
                    found.extend(
                        (node.name, target.attr, sub.lineno)
                        for target in targets
                        if isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and isinstance(target.ctx, ast.Store)
                    )
    return found


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute names loaded for their value, not only to be written to."""
    written = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in WRITERS
        ):
            written.add(id(node.func.value))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            written.add(id(node.value))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in written
    }


def test_every_field_is_read_by_the_program():
    reads = set()
    for top in PROGRAM:
        for path in top.rglob("*.py"):
            reads |= _attribute_reads(_parse(path))
    unread = [
        f"{path.relative_to(ROOT)}:{line} {cls}.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for cls, name, line in _fields(_parse(path))
        if name not in reads and (cls, name) not in ORACLE_FIELDS
    ]
    assert unread == [], "written but never read by the program:\n" + "\n".join(unread)
