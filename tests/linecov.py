"""The lines of ``src/parley`` that the tests and the program run.

    python -m tests.linecov [--check]

Records, with ``sys.settrace`` and in this one process, the lines of the
package that run under the program paths:

* every bundled scenario through ``cli.main`` as ``run``, ``run --trace``,
  ``validate``, ``run --mode seq`` and ``run --mode mixed``;
* ``dump-protocol`` on every bundled protocol;
* the ``faulty_individual`` and ``joint_fanout`` scenarios that
  ``bench/workloads.generate`` makes at seeds 1 and 2, through one pass
  of ``bench/run.py``'s own ``Harness``: each parsed, wired, run,
  summarized, rendered and checked, by ``check_generated`` and against
  the statistics recorded in ``bench/expected.json``.

and then under the tier-1 suite (``tests/`` and ``bench/``).  The
program goes first, so that the lines a module runs when it is imported
count for the program.  It prints every line that nothing ran and, per
function, the lines that only tests ran.  With ``--check`` it exits 1
when a line is run by nothing, or when the test-only lines per function
differ from ``tests/data/test_only_lines.json``.  That file lists each
function that has any, by module, with their count and one of the
reasons of ``REASONS``; keying by function keeps an edit elsewhere in a
module from moving the list.

An executable line is one that some compiled instruction of the module
carries, as ``code.co_lines`` gives them; a function's ``def`` line runs
when its module is imported.  Line events differ between Python
versions, so the list holds for Python 3.11.  ``__main__.py`` runs only
in a fresh process, where an in-process tracer cannot see it, and is
left out.

The recorder judges no test.  A few tests fail under a tracer: they
check that a run starts no garbage collection or leaves no cyclic
garbage, and the tracer's own allocations break that.  The untraced
tier-1 run judges them.  Hypothesis runs
derandomized and without deadlines, so that a property test reaches the
same lines on every run, however slow the tracer makes it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parley"
LISTED = ROOT / "tests" / "data" / "test_only_lines.json"
#: run only in a fresh process
EXEMPT = frozenset({"__main__.py"})
SEEDS = (1, 2)
WORKLOADS = ("faulty_individual", "joint_fanout")

#: why a line may run only under tests
REASONS = {
    "refusal": "refuses bad input: a document, a message, an option value",
    "guard": "refuses a call the program never makes (an internal precondition)",
    "budget": "stops a run over its tick or zero-delay hop budget",
    "late": "drops a message that arrives after what it answers is gone",
    "item-6": "recovers past point 1, which no bundled protocol reaches (ROADMAP item 6)",
    "recovery": "a mixed recovery branch that only a crafted protocol reaches",
    "shape": "a role shape no bundled protocol has (a reception with no reply)",
    "pattern": "a pattern feature no bundled protocol uses (arrays, ?any, literals)",
    "tie-break": "largest-set arbitration beyond a unanimous or equal backing",
    "allocation": "a role allocation with no injective completion",
    "orientation": "agent-oriented exploration, which no bundled scenario uses",
    "fault": "a structure fault on a field no workload corrupts",
    "option": "a command-line option the program paths do not pass",
    "omega": "a protocol annotation block, which no bundled protocol has",
    "equality": "machine equality, hashing and repr, which only tests compare",
    "encoding": "trace rendering without the C encoder",
    "bench": "kept for bench/tracing.py, which patches it by name",
}


def _owned(code: CodeType, owner: str = "<module>", prefix: str | None = ""):
    """``code`` and every code object compiled within it, outer before
    inner, each with its owner: the qualified name of the outermost
    function or method around it, ``<module>`` outside any.  ``prefix``
    is what the module or a class body puts before the names it defines,
    None within a function."""
    yield code, owner
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if prefix is None or code.co_flags & CO_OPTIMIZED:  # within a function
                yield from _owned(const, owner, None)
            else:
                name = prefix + const.co_name
                yield from _owned(const, name, f"{name}.")


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of the module at ``path`` -> the function it
    belongs to: the qualified name of the outermost function or method
    around it, ``<module>`` outside any.

    A function's first line carries only its entry, which raises no line
    event; the enclosing code runs that line when it defines the
    function, so the line belongs there.
    """
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: dict[int, str] = {}
    for code, owner in _owned(module):
        for _, _, line in code.co_lines():
            if line and (code is module or line != code.co_firstlineno):
                lines[line] = owner
    return lines


class Recorder:
    """The (file, line) of each line event in a package file while on;
    the program and its tests start no thread."""

    def __init__(self) -> None:
        self.prefix = f"{PACKAGE}/"
        self.hits: set[tuple[str, int]] = set()
        #: co_filename -> whether it is a package file
        self.wanted: dict[str, bool] = {}

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        wanted = self.wanted.get(filename)
        if wanted is None:
            wanted = self.wanted[filename] = str(Path(filename).resolve()).startswith(self.prefix)
        return self._line if wanted else None

    @contextlib.contextmanager
    def on(self):
        sys.settrace(self._call)
        try:
            yield self
        finally:
            sys.settrace(None)

    def take(self) -> set[tuple[str, int]]:
        """The hits so far, by resolved path, and a fresh start."""
        hits, self.hits = self.hits, set()
        return {(str(Path(f).resolve()), line) for f, line in hits}


def run_suite() -> int:
    """The tier-1 suite, in this process; its exit status."""
    import pytest
    from hypothesis import settings

    settings.register_profile("linecov", deadline=None, derandomize=True)
    settings.load_profile("linecov")
    return pytest.main(
        [
            "-q",
            "-p",
            "no:cacheprovider",
            # hypothesis is imported before pytest, to set the profile
            "-W",
            "ignore::pytest.PytestAssertRewriteWarning",
            "--continue-on-collection-errors",
            str(ROOT),
        ]
    )


def run_program() -> None:
    """The program paths; raises when one of them goes wrong."""
    from parley import cli
    from parley.fixtures import ROOT as FIXTURES

    sys.path.insert(0, str(ROOT / "bench"))
    import run as bench_run

    scenarios = sorted(p.stem for p in (FIXTURES / "scenarios").glob("*.json"))
    protocols = sorted(p.stem for p in (FIXTURES / "protocols").glob("*.json"))
    commands = [["dump-protocol", name] for name in protocols]
    with tempfile.TemporaryDirectory() as tmp:
        for name in scenarios:
            commands += [
                ["run", name],
                ["run", name, "--trace", f"{tmp}/trace.jsonl"],
                ["validate", name],
                ["run", name, "--mode", "seq"],
                ["run", name, "--mode", "mixed"],
            ]
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                cli.main(argv)
    # one pass of the benchmark's own harness, which parses, wires, runs,
    # summarizes, renders and checks each scenario against the recorded
    # statistics
    recorded = bench_run.load_expected()["stats"]
    for workload in WORKLOADS:
        for seed in SEEDS:
            inputs = bench_run.prepare(workload, seed)
            try:
                h = bench_run.Harness(workload, inputs, recorded[workload][str(seed)])
                h.run_pass()
            finally:
                for inp in inputs:
                    inp.path.unlink(missing_ok=True)
            if h.failed:
                raise SystemExit(f"linecov: {workload} seed {seed}: {h.problems[:3]}")


def report(
    suite: set[tuple[str, int]], program: set[tuple[str, int]], package: Path = PACKAGE
) -> tuple[list[str], dict[str, dict[str, list[int]]]]:
    """The lines nothing ran, as ``file:line``, and module -> function ->
    the lines only tests ran."""
    unrun: list[str] = []
    test_only: dict[str, dict[str, list[int]]] = {}
    for path in sorted(package.rglob("*.py")):
        if path.name in EXEMPT:
            continue
        name = str(path)
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        for line, function in sorted(executable_lines(path).items()):
            if (name, line) in program:
                continue
            if (name, line) in suite:
                test_only.setdefault(module, {}).setdefault(function, []).append(line)
            else:
                unrun.append(f"{path.relative_to(package.parent.parent)}:{line} ({function})")
    return unrun, test_only


def differences(test_only: dict[str, dict[str, list[int]]], listed: dict) -> list[str]:
    """Where the test-only lines found differ from the counts listed."""
    found = {
        (module, function): len(lines)
        for module, functions in test_only.items()
        for function, lines in functions.items()
    }
    expected = {
        (module, function): entry["lines"]
        for module, functions in listed.items()
        for function, entry in functions.items()
    }
    problems = [
        f"{module}.{function}: no such reason {entry['reason']!r}"
        for module, functions in listed.items()
        for function, entry in functions.items()
        if entry["reason"] not in REASONS
    ]
    for key in sorted(found.keys() | expected.keys()):
        have, want = found.get(key, 0), expected.get(key)
        if want is None:
            problems.append(f"{key[0]}.{key[1]}: {have} test-only lines, not listed")
        elif have != want:
            problems.append(f"{key[0]}.{key[1]}: {have} test-only lines, listed {want}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.linecov", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a line nothing runs, or on test-only lines "
                        "that differ from the list")
    args = parser.parse_args(argv)
    if "parley" in sys.modules:
        raise SystemExit("linecov: parley was imported before the recorder started")
    sys.path.insert(0, str(ROOT / "src"))
    recorder = Recorder()
    with recorder.on():  # the program first, so that it imports the package
        run_program()
        program = recorder.take()
        status = run_suite()
        suite = recorder.take()
    unrun, test_only = report(suite, program)
    print(f"\nlinecov: the traced suite exited {status}; the untraced run judges it")
    print(f"linecov: {len(unrun)} lines run by nothing")
    for line in unrun:
        print(f"  {line}")
    print("linecov: lines run only by tests, per function")
    for module, functions in test_only.items():
        for function, lines in functions.items():
            print(f"  {module}.{function}: {len(lines)} ({', '.join(map(str, lines))})")
    if not args.check:
        return 0
    problems = differences(test_only, json.loads(LISTED.read_text(encoding="utf-8")))
    for problem in problems:
        print(f"linecov: {problem}")
    return 1 if unrun or problems else 0


if __name__ == "__main__":
    sys.exit(main())
