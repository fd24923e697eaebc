"""Content trees and the shape/content match split."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from parley.patterns import (
    MAX_DEPTH,
    content_matches,
    fill_pattern,
    get_leaf,
    leaf_paths,
    set_leaf,
    shape_matches,
    validate_pattern,
)

PATTERN = {"attribute": "?string", "hits": "?number", "tags": ["?any", "fixed"]}


def test_shape_ignores_leaf_values():
    good_shape_bad_content = {"attribute": 12, "hits": "lots", "tags": [1, "wrong"]}
    assert shape_matches(PATTERN, good_shape_bad_content)
    assert not content_matches(PATTERN, good_shape_bad_content)


def test_content_checks_types_and_constants():
    assert content_matches(PATTERN, {"attribute": "a", "hits": 3, "tags": [0, "fixed"]})
    assert not content_matches(PATTERN, {"attribute": "a", "hits": 3, "tags": [0, "other"]})


def test_missing_and_extra_keys_break_the_shape():
    assert not shape_matches(PATTERN, {"attribute": "a", "hits": 3})
    assert not shape_matches(
        PATTERN, {"attribute": "a", "hits": 3, "tags": [0, "fixed"], "more": 1}
    )


def test_list_lengths_are_structural():
    assert not shape_matches(["?any", "?any"], ["only"])


def test_booleans_are_not_message_scalars():
    assert not shape_matches("?any", True)
    assert not content_matches("?number", True)


def test_number_wildcard_takes_ints_and_floats():
    assert content_matches("?number", 3)
    assert content_matches("?number", 3.5)
    assert not content_matches("?number", "3")


def test_concrete_leaves_require_type_equality():
    # 1 == 1.0 in Python; the match is stricter than that
    assert not content_matches({"n": 1}, {"n": 1.0})
    assert content_matches({"n": 1}, {"n": 1})


def test_validate_pattern_reports_paths():
    problems = validate_pattern({"ok": "?string", "bad": "?bogus", 3: "x"})
    assert any("$.bad" in p and "?bogus" in p for p in problems)
    assert any("non-string key" in p for p in problems)
    assert validate_pattern(PATTERN) == []


def test_validate_pattern_bounds_the_nesting_the_matchers_recurse_into():
    def nested(depth):
        pattern = {"x": "?string"}
        for _ in range(depth):
            pattern = [pattern]
        return pattern

    assert validate_pattern(nested(MAX_DEPTH - 1)) == []
    assert validate_pattern(nested(MAX_DEPTH)) == [
        "$" + "[0]" * MAX_DEPTH + f": nested deeper than {MAX_DEPTH}"
    ]
    # deeper than a walk could recurse: refused, not a RecursionError
    assert len(validate_pattern(nested(5000))) == 1


def test_validate_pattern_rejects_odd_leaves():
    assert validate_pattern({"x": None}) != []
    assert validate_pattern({"x": True}) != []


def test_fill_is_deterministic_and_satisfying():
    a = fill_pattern(PATTERN)
    b = fill_pattern(PATTERN)
    assert a == b
    assert content_matches(PATTERN, a)


_leaves = st.sampled_from(["?string", "?number", "?any", "word", 3, 2.5])
_patterns = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.lists(sub, max_size=3),
        st.dictionaries(st.text(alphabet="abcd", min_size=1, max_size=3), sub, max_size=3),
    ),
    max_leaves=8,
)


@given(_patterns)
def test_fill_always_satisfies_its_pattern(pattern):
    assert validate_pattern(pattern) == []
    filled = fill_pattern(pattern)
    assert content_matches(pattern, filled)
    assert shape_matches(pattern, filled)


def test_leaf_paths_are_stable_and_addressable():
    tree = {"b": [10, 20], "a": "x"}
    paths = leaf_paths(tree)
    assert paths == [("a",), ("b", 0), ("b", 1)]
    assert get_leaf(tree, ("b", 1)) == 20


def test_set_leaf_copies_instead_of_mutating():
    tree = {"a": {"b": [1, 2]}}
    out = set_leaf(tree, ("a", "b", 0), "swapped")
    assert out == {"a": {"b": ["swapped", 2]}}
    assert tree == {"a": {"b": [1, 2]}}
