"""Every function, class, method and field of the package is used by the program.

A name that only tests reach is a second API to keep working, and a
field nothing reads is state to keep right for nobody; these guards
stop either from growing back.  A definition counts as used when code in
``src/``, ``scripts/`` or ``bench/`` loads its name somewhere: as a name,
as an attribute, or as a string naming it for a ``getattr``-style
lookup.  The names an ``__all__`` lists do not count as uses, since
listing a name exports it without using it; the bundled-fixture helpers
and dunder methods (called by the language itself) are exempt.

A field is a NamedTuple field, or an attribute an ``__init__`` assigns
on ``self``.  It counts as read only when the program loads it as an
attribute other than to call ``add``, ``append``, ``extend`` or
``update`` on it or to store into one of its items.

Methods and fields are matched per class.  An attribute load counts for
the class of the value it is loaded from, with that class's bases and
subclasses, wherever :class:`_Scope` can tell the class; elsewhere it
counts for every class with a member of that name.  So a dead member
that shares its name with a live one of another class is flagged.

A module of the package loads every name it imports: an import left
behind by a deletion is flagged where it stands.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

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


# ---------------------------------------------------------------------------
# Types: a type is a set of tags.  Tag "C" is a value of package class C;
# "[" before a tag is a collection iterating over it, "]" one indexed to it.
# None is a type the code does not tell.
# ---------------------------------------------------------------------------


def _iterated(tags):
    return None if tags is None else {t[1:] for t in tags if t[0] == "["}


def _indexed(tags):
    return None if tags is None else {t[1:] for t in tags if t[0] == "]"}


def _listing(tags):
    return None if tags is None else {p + t for t in tags for p in "[]"}


def _union(types):
    types = list(types)
    return None if any(t is None for t in types) else set().union(*types)


class _Class(NamedTuple):
    bases: tuple[str, ...]
    #: methods, class attributes and fields
    members: frozenset[str]
    #: field -> the annotation of its value
    fields: dict[str, ast.expr]
    #: method -> its return annotation
    returns: dict[str, ast.expr]


def _self_stores(fn: ast.FunctionDef):
    """(attribute, value, annotation, line) of each ``self.<attribute>`` store."""
    for node in ast.walk(fn):
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(target.ctx, ast.Store)
            ):
                annotation = getattr(node, "annotation", None)
                yield target.attr, getattr(node, "value", None), annotation, node.lineno


def _class(node: ast.ClassDef) -> _Class:
    members, fields, returns = set(), {}, {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign):
            members.add(stmt.target.id)
            fields[stmt.target.id] = stmt.annotation
        elif isinstance(stmt, ast.Assign):
            members.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.FunctionDef):
            members.add(stmt.name)
            returns[stmt.name] = stmt.returns
            params = {a.arg: a.annotation for a in stmt.args.args if a.annotation}
            for attr, value, annotation, _ in _self_stores(stmt):
                members.add(attr)
                if annotation is not None:
                    fields[attr] = annotation
                elif isinstance(value, ast.Name) and value.id in params:
                    fields.setdefault(attr, params[value.id])
                elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                    fields.setdefault(attr, value.func)
    bases = tuple(getattr(b, "id", getattr(b, "attr", "")) for b in node.bases)
    return _Class(bases, frozenset(members), fields, returns)


class _Program:
    """The package's classes and functions, and the scopes of the program."""

    def __init__(self, program=PROGRAM, package=PACKAGE) -> None:
        self.trees = {
            path: _parse(path) for top in program for path in sorted(top.rglob("*.py"))
        }
        self.classes: dict[str, _Class] = {}
        self.functions: dict[str, ast.expr | None] = {}
        self.globals: dict[str, ast.expr] = {}
        for path, tree in self.trees.items():
            if package not in path.parents:
                continue
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = _class(node)
                elif isinstance(node, ast.FunctionDef):
                    self.functions[node.name] = node.returns
                elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    self.globals[node.targets[0].id] = node.value
        self.ancestors = {name: self._ancestors(name) for name in self.classes}
        self.family = {
            name: {name, *self.ancestors[name]}
            | {other for other, up in self.ancestors.items() if name in up}
            for name in self.classes
        }
        self.members = {
            name: frozenset().union(*(self.classes[c].members for c in (name, *up)))
            for name, up in self.ancestors.items()
        }

    def _ancestors(self, name: str) -> list[str]:
        found = []
        for base in self.classes[name].bases:
            if base in self.classes:
                found += [base, *self._ancestors(base)]
        return found

    def lookup(self, name: str, member: str, table: str):
        """The annotation ``table`` (fields or returns) gives ``member``
        in class ``name`` or its nearest base; None when none does."""
        for cls in (name, *self.ancestors[name]):
            annotation = getattr(self.classes[cls], table).get(member)
            if annotation is not None:
                return annotation
        return None

    def annotated(self, annotation):
        """The type an annotation names."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant):
            return None if isinstance(annotation.value, str) else set()
        if isinstance(annotation, ast.Name):
            name = annotation.id
            if name in self.classes:
                return {name}
            if name in self.functions:  # a field set from a call: what it returns
                return self.annotated(self.functions[name])
            value = self.globals.get(name)
            if isinstance(value, (ast.Subscript, ast.BinOp, ast.Name)):
                return self.annotated(value)  # a type alias
            return None if value is not None or name in ("Any", "object") else set()
        if isinstance(annotation, ast.BinOp):
            return _union(map(self.annotated, (annotation.left, annotation.right)))
        if isinstance(annotation, ast.Subscript):
            outer = getattr(annotation.value, "id", None)
            args = annotation.slice
            args = list(args.elts) if isinstance(args, ast.Tuple) else [args]
            args = [a for a in args if not (isinstance(a, ast.Constant) and a.value is ...)]
            if outer == "dict":
                keys, values = (self.annotated(a) for a in args)
                if keys is None or values is None:
                    return None
                return {"[" + t for t in keys} | {"]" + t for t in values}
            if outer in ("list", "tuple", "set", "frozenset", "Iterable"):
                return _listing(_union(map(self.annotated, args)))
            return set()
        return set() if isinstance(annotation, ast.Attribute) else None

    def scopes(self):
        """Each scope of the program: one per module (its statements and
        class bodies outside any function) and one per top-level function
        or method (with any function nested in it)."""
        for tree in self.trees.values():
            module = _Scope(self, tree, None, None)
            yield module
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    yield _Scope(self, node, None, module)
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            yield _Scope(self, item, node.name, module)


def _statements(tree: ast.Module):
    """The nodes of a module outside its functions."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    yield from ast.walk(item)
        elif not isinstance(node, ast.FunctionDef):
            yield from ast.walk(node)


class _Scope:
    """The names one scope binds, each with how it is bound, and the
    type of an expression in it."""

    def __init__(self, program: _Program, node, owner: str | None, outer) -> None:
        self.program = program
        self.outer = outer
        self.bindings: dict[str, list[tuple]] = {}
        self.attrs: dict[str, set[str]] = {}  # name -> attributes loaded or stored on it
        self.memo: dict[str, object] = {}
        self.nodes = list(_statements(node) if outer is None else ast.walk(node))
        bound = set()

        def bind(target, how) -> None:
            bound.add(id(target))
            if isinstance(target, ast.Name):
                self.bindings.setdefault(target.id, []).append(how)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    bind(element, ("iter", how))

        if outer is None:
            for stmt in node.body:
                if isinstance(stmt, (ast.ClassDef, ast.FunctionDef)):
                    self.bindings[stmt.name] = [("class", stmt.name)]
        elif owner is not None and node.args.args:
            decorators = {getattr(d, "id", None) for d in node.decorator_list}
            if "staticmethod" not in decorators:
                bound.add(id(node.args.args[0]))  # self, or cls
                self.bindings[node.args.args[0].arg] = [("class", owner)]
        for sub in self.nodes:
            if isinstance(sub, (ast.FunctionDef, ast.Lambda)):
                args = sub.args
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg):
                    if arg is None or id(arg) in bound:
                        continue
                    how = ("ann", arg.annotation) if arg.annotation is not None else ("unknown",)
                    self.bindings.setdefault(arg.arg, []).append(how)
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    bind(target, ("value", sub.value))
            elif isinstance(sub, ast.AnnAssign):
                bind(sub.target, ("ann", sub.annotation))
            elif isinstance(sub, (ast.For, ast.comprehension)):
                bind(sub.target, ("iter", ("value", sub.iter)))
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    self.bindings.setdefault(name, []).append(("import", alias.name))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                self.attrs.setdefault(sub.value.id, set()).add(sub.attr)
        for sub in self.nodes:
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                if id(sub) not in bound:
                    self.bindings.setdefault(sub.id, []).append(("unknown",))

    def name(self, name: str):
        if name not in self.memo:
            self.memo[name] = set()  # a binding through the name itself adds nothing
            hows = self.bindings.get(name)
            if hows is None:
                found = self.outer.name(name) if self.outer is not None else None
            else:
                found = _union(self.how(how) for how in hows)
                if found is None:
                    found = self.structural(name)
            self.memo[name] = found
        return self.memo[name]

    def how(self, how: tuple):
        kind = how[0]
        if kind in ("class", "import"):  # only a package class has a type here
            return {how[1]} if how[1] in self.program.classes else set()
        if kind == "ann":
            return self.program.annotated(how[1])
        if kind == "value":
            return self.type(how[1])
        return _iterated(self.how(how[1])) if kind == "iter" else None

    def structural(self, name: str):
        """The classes that have every attribute the scope uses on
        ``name``, when some do."""
        attrs = self.attrs.get(name)
        if not attrs:
            return None
        members = self.program.members
        return {cls for cls in self.program.classes if attrs <= members[cls]} or None

    def _member(self, owner, member: str, table: str):
        classes = {t for t in owner or () if t[0] not in "[]"}
        if not classes:
            return None
        return _union(
            self.program.annotated(self.program.lookup(cls, member, table)) for cls in classes
        )

    def type(self, node):
        """The type of expression ``node``."""
        if isinstance(node, ast.Name):
            return self.name(node.id)
        if isinstance(node, ast.Attribute):
            return self._member(self.type(node.value), node.attr, "fields")
        if isinstance(node, ast.Subscript):
            return _indexed(self.type(node.value)) or None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return _listing(self.type(node.elt))
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Attribute):
            return self._member(self.type(func.value), func.attr, "returns")
        if not isinstance(func, ast.Name):
            return None
        if func.id in self.program.classes:
            return {func.id}
        if func.id in self.program.functions:
            return self.program.annotated(self.program.functions[func.id])
        return None


def _reads(program: _Program, writes: bool):
    """(names loaded as an attribute of a value of untold class, (class,
    name) loaded as an attribute of a value of class or of a relative of
    it); loads made only to write to the value count when ``writes``."""
    untold, told = set(), set()
    for scope in program.scopes():
        written = set()
        for node in scope.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in WRITERS
            ):
                written.add(id(node.func.value))
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                written.add(id(node.value))
        for node in scope.nodes:
            if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, ast.Load):
                continue
            if id(node) in written and not writes:
                continue
            owner = scope.type(node.value)
            if owner is None:
                untold.add(node.attr)
                continue
            for cls in owner:
                for relative in program.family.get(cls, ()):
                    told.add((relative, node.attr))
    return untold, told


# ---------------------------------------------------------------------------
# The guards
# ---------------------------------------------------------------------------


def _definitions(tree: ast.Module) -> list[tuple[str | None, str, int]]:
    """(class, name, line) of each top-level function and class (class
    None) and each method."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    found = []
    for node in tree.body:
        if isinstance(node, defs):
            found.append((None, node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (node.name, n.name, n.lineno) for n in node.body if isinstance(n, defs[:2])
            )
    return found


def _loads(tree: ast.Module) -> set[str]:
    """The names loaded bare, or spelt out whole as a string outside ``__all__``."""
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
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            loads.add(node.value)
    return loads


def _dead_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each name an import binds that the module never
    loads bare; ``from __future__`` imports bind no name."""
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        (alias.asname or alias.name.partition(".")[0], node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.partition(".")[0]) not in loaded
    ]


def test_an_import_never_loaded_is_flagged():
    tree = ast.parse("import os.path\nfrom x import a, b as c\nprint(a)\n")
    assert _dead_imports(tree) == [("os", 1), ("c", 2)]


def test_every_import_is_loaded_where_it_is_imported():
    dead = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in _dead_imports(_parse(path))
    ]
    assert dead == [], "imported but never loaded:\n" + "\n".join(dead)


def test_every_definition_is_reached_from_the_program():
    program = _Program()
    loads = set().union(*map(_loads, program.trees.values()))
    untold, told = _reads(program, writes=True)
    attributes = untold | {name for _, name in told}

    def reached(cls: str | None, name: str) -> bool:
        if name in loads:
            return True
        if cls is None:  # a module attribute
            return name in attributes
        return name in untold or (cls, name) in told

    exempt = set(vars(parley.fixtures))
    unreached = [
        f"{path.relative_to(ROOT)}:{line} {name if cls is None else f'{cls}.{name}'}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for cls, name, line in _definitions(program.trees[path])
        if not reached(cls, name)
        and name not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unreached == [], "reached only from tests, or nowhere:\n" + "\n".join(unreached)


def _fields(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, field, line) of each record field and ``__init__`` attribute."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        record = any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)
        for stmt in node.body:
            if record and isinstance(stmt, ast.AnnAssign):
                found.append((node.name, stmt.target.id, stmt.lineno))
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                found.extend((node.name, attr, line) for attr, _, _, line in _self_stores(stmt))
    return found


def test_a_dead_field_that_shares_a_live_name_is_flagged(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "records.py").write_text(
        "from typing import NamedTuple\n"
        "class Live(NamedTuple):\n"
        "    name: str\n"
        "class Dead(NamedTuple):\n"
        "    name: str\n"
        "def names(first: Live, rest: list[Live]) -> str:\n"
        "    return first.name + ''.join(item.name for item in rest)\n",
        encoding="utf-8",
    )
    untold, told = _reads(_Program((tmp_path / "src",), package), writes=False)
    assert "name" not in untold
    assert ("Live", "name") in told
    assert ("Dead", "name") not in told


def test_every_field_is_read_by_the_program():
    program = _Program()
    untold, told = _reads(program, writes=False)
    unread = [
        f"{path.relative_to(ROOT)}:{line} {cls}.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for cls, name, line in _fields(program.trees[path])
        if name not in untold and (cls, name) not in told and (cls, name) not in ORACLE_FIELDS
    ]
    assert unread == [], "written but never read by the program:\n" + "\n".join(unread)
