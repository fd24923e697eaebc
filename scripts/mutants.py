#!/usr/bin/env python3
"""Score the tests against seeded one-operator mutants of the decision rules.

A mutant changes one operator of one of ``MODULES``: it negates one
comparison (``==`` and ``!=``, ``<`` and ``>=``, ``>`` and ``<=``, ``is``
and ``is not``, ``in`` and ``not in``) or swaps one ``and`` for ``or``,
or back.  A fixed seed draws a fixed sample of ``PER_MODULE`` mutants
from each module.  Each mutant runs against the decision-rule tests
(``TESTS``) with a temporary copy of ``src/`` first on the path, so the
checkout is never edited.  It is killed when a test fails, or the run
outlives ``TIMEOUT_S``, and it survives when every test passes.  The
unmutated copy runs first and must pass.

Run from the repository root:  python3 scripts/mutants.py

It prints one line per mutant and the score, and exits 1 when a mutant
survives that ``EQUIVALENT`` does not name.  It needs the test
dependencies (pytest, hypothesis) and nothing else; a run takes up to
about 20 s a mutant.
"""

from __future__ import annotations

import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parley"

MODULES = ("joint.py", "individual.py", "mixed.py", "machine.py")
TESTS = (
    "tests/test_joint.py",
    "tests/test_individual.py",
    "tests/test_mixed.py",
    "tests/test_machine.py",
    "tests/test_acceptance.py",
    "tests/test_meta_monitor.py",
)
SEED = 10
PER_MODULE = 8
TIMEOUT_S = 600

#: survivors no test can kill, each with the reason.  A label names a
#: line, so an edit above it shows the mutant again, to be judged again.
EQUIVALENT: dict[str, str] = {}

#: each operator and the one a mutant puts in its place
SWAPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.GtE: ast.Lt,
    ast.Gt: ast.LtE,
    ast.LtE: ast.Gt,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.And: ast.Or,
    ast.Or: ast.And,
}
SYMBOLS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.GtE: ">=",
    ast.Gt: ">",
    ast.LtE: "<=",
    ast.Is: "is",
    ast.IsNot: "is not",
    ast.In: "in",
    ast.NotIn: "not in",
    ast.And: "and",
    ast.Or: "or",
}


def _sites(tree: ast.Module) -> list[tuple[ast.expr, int]]:
    """Every operator a mutant can change, in source order: a comparison
    with the index of its operator, or a boolean operation with -1."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, i) for i in range(len(node.ops))]
        elif isinstance(node, ast.BoolOp):
            found.append((node, -1))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1]))


def mutants(module: str):
    """(label, source) of the sampled mutants of ``module``, in source order."""
    source = (PACKAGE / module).read_text(encoding="utf-8")
    count = len(_sites(ast.parse(source)))
    drawn = random.Random(f"{SEED}:{module}").sample(range(count), min(PER_MODULE, count))
    for k in sorted(drawn):
        tree = ast.parse(source)  # a fresh tree: each mutant changes one operator
        node, index = _sites(tree)[k]
        old = node.op if index < 0 else node.ops[index]
        new = SWAPS[type(old)]()
        if index < 0:
            node.op = new
        else:
            node.ops[index] = new
        label = f"{module}:{node.lineno} {SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"
        yield label, ast.unparse(tree)


def _passes(src: Path) -> bool:
    """Whether every test passes with ``src`` first on the path."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not _passes(src):
            print("the unmutated tests fail: no score", file=sys.stderr)
            return 2
        counts = {"killed": 0, "equivalent": 0, "survived": 0}
        for module in MODULES:
            target = src / "parley" / module
            for label, text in mutants(module):
                target.write_text(text, encoding="utf-8")
                if not _passes(src):
                    verdict = "killed"
                elif label in EQUIVALENT:
                    verdict, label = "equivalent", f"{label}: {EQUIVALENT[label]}"
                else:
                    verdict = "survived"
                counts[verdict] += 1
                print(f"{verdict:<10} {label}", flush=True)
            shutil.copyfile(PACKAGE / module, target)
    print(f"of {sum(counts.values())} mutants:", ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
