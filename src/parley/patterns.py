"""Structured message content and the two-level pattern match.

Message content is a tree built from dicts, lists and scalar leaves
(str, int, float).  A pattern is the same kind of tree in which any
leaf may be replaced by a typed wildcard: ``"?string"``, ``"?number"``
or ``"?any"``.

Matching is split in two levels so that a malformed message can be
told apart from a well-formed message carrying bad data:

* shape match -- the trees agree on dict keys and list lengths and
  leaves align with leaves; leaf values are ignored entirely.
* content match -- shape match plus leaf predicates: a wildcard checks
  the leaf type, a concrete pattern leaf requires equality.
"""

from __future__ import annotations

from typing import Any

WILDCARD_STRING = "?string"
WILDCARD_NUMBER = "?number"
WILDCARD_ANY = "?any"
WILDCARDS = frozenset({WILDCARD_STRING, WILDCARD_NUMBER, WILDCARD_ANY})


def is_wildcard(value: Any) -> bool:
    return isinstance(value, str) and value in WILDCARDS


def _is_scalar(value: Any) -> bool:
    # bool is an int subclass but has no place in message content
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


#: how deep a pattern may nest: the matchers and the filler recurse into it
MAX_DEPTH = 32


def validate_pattern(pattern: Any, path: str = "$", depth: int = 0) -> list[str]:
    """Return a list of problems (empty when the pattern is well formed)."""
    problems: list[str] = []
    if isinstance(pattern, (dict, list)) and depth == MAX_DEPTH:
        problems.append(f"{path}: nested deeper than {MAX_DEPTH}")
    elif isinstance(pattern, dict):
        for key, sub in pattern.items():
            if not isinstance(key, str):
                problems.append(f"{path}: non-string key {key!r}")
            else:
                problems.extend(validate_pattern(sub, f"{path}.{key}", depth + 1))
    elif isinstance(pattern, list):
        for idx, sub in enumerate(pattern):
            problems.extend(validate_pattern(sub, f"{path}[{idx}]", depth + 1))
    elif isinstance(pattern, str):
        if pattern.startswith("?") and pattern not in WILDCARDS:
            problems.append(f"{path}: unknown wildcard {pattern!r}")
    elif not _is_scalar(pattern):
        problems.append(f"{path}: unsupported leaf {pattern!r}")
    return problems


def shape_matches(pattern: Any, value: Any) -> bool:
    """Structural agreement only: keys, lengths, leaf positions."""
    if isinstance(pattern, dict):
        return (
            isinstance(value, dict)
            and set(pattern) == set(value)
            and all(shape_matches(pattern[k], value[k]) for k in pattern)
        )
    if isinstance(pattern, list):
        return (
            isinstance(value, list)
            and len(pattern) == len(value)
            and all(shape_matches(p, v) for p, v in zip(pattern, value))
        )
    # leaf pattern (wildcard or concrete) against a leaf value
    return _is_scalar(value)


def content_matches(pattern: Any, value: Any) -> bool:
    """Shape match plus leaf predicates."""
    if isinstance(pattern, dict):
        return (
            isinstance(value, dict)
            and set(pattern) == set(value)
            and all(content_matches(pattern[k], value[k]) for k in pattern)
        )
    if isinstance(pattern, list):
        return (
            isinstance(value, list)
            and len(pattern) == len(value)
            and all(content_matches(p, v) for p, v in zip(pattern, value))
        )
    if not _is_scalar(value):
        return False
    if pattern == WILDCARD_ANY:
        return True
    if pattern == WILDCARD_STRING:
        return isinstance(value, str)
    if pattern == WILDCARD_NUMBER:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(pattern) is type(value) and pattern == value


_FILL = {WILDCARD_STRING: "text", WILDCARD_NUMBER: 7, WILDCARD_ANY: "data"}


def fill_pattern(pattern: Any) -> Any:
    """Produce a concrete content tree satisfying the pattern.

    Filling is deliberately deterministic: two roles instantiating the
    same pattern emit byte-identical content, which is what lets a
    control zone keep several role instances active at once.
    """
    if isinstance(pattern, dict):
        return {k: fill_pattern(v) for k, v in pattern.items()}
    if isinstance(pattern, list):
        return [fill_pattern(v) for v in pattern]
    if is_wildcard(pattern):
        return _FILL[pattern]
    return pattern


def leaf_paths(value: Any) -> list[tuple[Any, ...]]:
    """All leaf positions of a content tree, in a stable sorted order."""
    found: list[tuple[Any, ...]] = []
    _collect_leaf_paths(value, (), found)
    return found


def _collect_leaf_paths(node: Any, path: tuple[Any, ...], found: list) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            _collect_leaf_paths(node[key], path + (key,), found)
    elif isinstance(node, list):
        for idx, sub in enumerate(node):
            _collect_leaf_paths(sub, path + (idx,), found)
    else:
        found.append(path)


def get_leaf(value: Any, path: tuple[Any, ...]) -> Any:
    node = value
    for step in path:
        node = node[step]
    return node


def set_leaf(value: Any, path: tuple[Any, ...], new: Any) -> Any:
    """Return a copy of the tree with one leaf replaced."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        copy = dict(value)
        copy[head] = set_leaf(copy[head], rest, new)
        return copy
    copy_list = list(value)
    copy_list[head] = set_leaf(copy_list[head], rest, new)
    return copy_list
