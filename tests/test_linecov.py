"""The line recorder's bookkeeping, and the list of lines only tests run.

The recording itself runs as ``python -m tests.linecov --check``; a test
here must not start a tracer, since the recorder may be running the
suite under its own.
"""

from __future__ import annotations

import json

from .linecov import LISTED, PACKAGE, REASONS, differences, executable_lines, report

SOURCE = '''"""A module."""

import os


class Box:
    size = 1

    def grow(self, n):
        if n:
            return [i for i in range(n)]
        return os.sep


def top():
    return Box().grow(2)
'''


def test_each_line_belongs_to_the_function_around_it(tmp_path):
    path = tmp_path / "box.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert executable_lines(path) == {
        1: "<module>",
        3: "<module>",
        6: "<module>",
        7: "Box",
        9: "Box",  # the def line runs when the class body does
        10: "Box.grow",
        11: "Box.grow",  # the comprehension is the method's
        12: "Box.grow",
        15: "<module>",
        16: "top",
    }


def test_a_line_is_the_program_s_or_the_tests_or_nobody_s(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "box.py").write_text(SOURCE, encoding="utf-8")
    (package / "__main__.py").write_text("print(1)\n", encoding="utf-8")
    name = str(package / "box.py")
    program = {(name, line) for line in (1, 3, 6, 7, 9, 15, 16)}
    suite = {(name, line) for line in (1, 10, 11, 16)}
    unrun, test_only = report(suite, program, package)
    assert unrun == ["src/pkg/box.py:12 (Box.grow)"]
    assert test_only == {"pkg.box": {"Box.grow": [10, 11]}}


def test_the_list_must_match_what_was_found():
    found = {"pkg.box": {"Box.grow": [10, 11], "top": [16]}}
    listed = {
        "pkg.box": {
            "Box.grow": {"lines": 1, "reason": "refusal"},
            "gone": {"lines": 2, "reason": "budget"},
        },
        "pkg.other": {"f": {"lines": 0, "reason": "because"}},
    }
    assert differences(found, listed) == [
        "pkg.other.f: no such reason 'because'",
        "pkg.box.Box.grow: 2 test-only lines, listed 1",
        "pkg.box.gone: 0 test-only lines, listed 2",
        "pkg.box.top: 1 test-only lines, not listed",
    ]
    listed = {
        "pkg.box": {
            "Box.grow": {"lines": 2, "reason": "refusal"},
            "top": {"lines": 1, "reason": "late"},
        }
    }
    assert differences(found, listed) == []


def test_every_listed_function_exists_with_a_known_reason():
    listed = json.loads(LISTED.read_text(encoding="utf-8"))
    for module, functions in listed.items():
        path = PACKAGE.parent.joinpath(*module.split(".")).with_suffix(".py")
        owners = set(executable_lines(path).values())
        for function, entry in functions.items():
            assert function in owners, (module, function)
            assert entry["reason"] in REASONS, (module, function)
            assert entry["lines"] > 0, (module, function)
