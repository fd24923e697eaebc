"""Hypothesis strategies producing plain-data problem instances.

Strategies stay on strings and dicts; individual tests adapt the data
to package types on one side and feed it to the oracles on the other.
"""

from __future__ import annotations

from copy import deepcopy

from hypothesis import strategies as st

AGENT_POOL = tuple(f"a{i}" for i in range(1, 7))
ROLE_POOL = tuple(f"r{c}" for c in "ABCDE")


@st.composite
def largest_set_instances(draw) -> tuple[dict[str, list[str]], set[str]]:
    """(replies, identified protocols) for the largest-set rule.

    Roles live in two protocols; "ghost" is only sometimes identified,
    so filtering gets exercised.
    """
    n_agents = draw(st.integers(min_value=1, max_value=6))
    n_roles = draw(st.integers(min_value=1, max_value=5))
    identified = {"many"}
    if draw(st.booleans()):
        identified.add("ghost")
    labels = [
        f"{draw(st.sampled_from(['many', 'many', 'ghost']))}:{r}"
        for r in ROLE_POOL[:n_roles]
    ]
    replies: dict[str, list[str]] = {}
    for agent in AGENT_POOL[:n_agents]:
        listed = draw(
            st.lists(st.sampled_from(labels), unique=True, min_size=1, max_size=n_roles)
        )
        replies[agent] = listed
    return replies, identified


@st.composite
def forest_instances(draw) -> tuple[dict[str, str | None], dict[str, list[str]]]:
    """(fathers, replies) with every role backed by at least one agent."""
    n_roles = draw(st.integers(min_value=1, max_value=5))
    roles = [f"p{i}" for i in range(1, n_roles + 1)]
    fathers: dict[str, str | None] = {}
    for i, role in enumerate(roles):
        fathers[role] = draw(st.sampled_from([None] + roles[:i])) if i else None
    n_agents = draw(st.integers(min_value=1, max_value=6))
    agents = list(AGENT_POOL[:n_agents])
    replies: dict[str, list[str]] = {agent: [] for agent in agents}
    for role in roles:
        backers = draw(st.lists(st.sampled_from(agents), unique=True, min_size=1))
        for agent in backers:
            replies[agent].append(role)
    return fathers, {a: rs for a, rs in replies.items() if rs}


@st.composite
def journal_graph_instances(
    draw,
) -> tuple[list[tuple[str, bool]], str, dict[str, frozenset[str]]]:
    """(records, initial method, follow relation) for recovery points.

    records: (method id, input was a message) per journal record.  About
    half the instances are rewritten into genuine graph walks so long
    prefixes occur often.
    """
    n_methods = draw(st.integers(min_value=1, max_value=6))
    methods = [f"m{i}" for i in range(1, n_methods + 1)]
    initial = methods[0]
    follow = {
        m: frozenset(draw(st.lists(st.sampled_from(methods), unique=True, max_size=4)))
        for m in methods
    }
    n_records = draw(st.integers(min_value=0, max_value=8))
    sequence = [draw(st.sampled_from(methods)) for _ in range(n_records)]
    if n_records and draw(st.booleans()):
        walk = [initial]
        while len(walk) < n_records:
            succs = sorted(follow[walk[-1]])
            if not succs:
                break
            walk.append(draw(st.sampled_from(succs)))
        sequence = walk
    records = [(m, draw(st.booleans())) for m in sequence]
    return records, initial, follow


#: variables a cascade writes and reads: few, so a change often enables
CASCADE_VARIABLES = ("q", "r")
CASCADE_SCHEMAS = ("tell", "sorry")


@st.composite
def cascade_machines(draw) -> tuple[list[tuple], str]:
    """(transitions, variable) of a participant machine that steps from
    ``s0`` on a change of ``variable``.

    transition: (from state, trigger variable, (action kind, its schema
    or variable, or None), to state, method).  Every trigger is
    internal, so each data change may set off more.  About half the
    instances are one chain of 6 to 10 data changes from ``s0`` ended by
    a send, so cascades run up to the cascade bound and past it.
    """
    if draw(st.booleans()):
        links = draw(st.integers(min_value=6, max_value=10))
        transitions = [
            (f"s{i}", "q", ("data_change", "q"), f"s{i + 1}", f"m{i}") for i in range(links - 1)
        ]
        transitions.append((f"s{links - 1}", "q", ("send", "tell"), f"s{links}", "end"))
        return transitions, "q"
    states = [f"s{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    actions = (
        st.tuples(st.just("send"), st.sampled_from(CASCADE_SCHEMAS))
        | st.tuples(st.just("data_change"), st.sampled_from(CASCADE_VARIABLES))
        | st.just(("none", None))
    )
    drawn = draw(
        st.lists(
            st.tuples(
                st.sampled_from(states),
                st.sampled_from(CASCADE_VARIABLES),
                actions,
                st.sampled_from(states),
            ),
            min_size=1,
            max_size=8,
        )
    )
    transitions = [(*t, f"m{i}") for i, t in enumerate(drawn)]
    return transitions, draw(st.sampled_from(CASCADE_VARIABLES))


#: conversation ids of the fault streams; "t1/c1" and "t12/c1" share a
#: literal prefix, "ab"/"ax" differ in their last character
STREAM_CONVERSATIONS = ("t1/c1", "t1/c2", "t2/c1", "t12/c1", "ab", "ax", "b")
#: literal ids, every glob form, empty literal prefixes, and patterns
#: that span several of the conversations above
FAULT_PATTERNS = STREAM_CONVERSATIONS + (
    "*", "*/c1", "?1*", "t1/*", "t1*", "t?/c1", "t[12]/c1", "t[!1]/c1",
    "a[ab]", "a[!b]", "a?", "[ab]*", "zz/*",
)
#: (op, structure field, content path)
FAULT_OPS = (
    ("corrupt_structure", "performative", ()),
    ("corrupt_structure", "shape", ()),
    ("corrupt_content", "performative", ("x",)),
    ("corrupt_content", "performative", ("n",)),
)
#: counted traffic, a self-addressed wake, a control performative
STREAM_KINDS = ("inform", "inform", "inform", "wake", "error-notify")


def _trailing_star_globs():
    """A literal prefix and one trailing ``*``: any prefix of a stream id
    (the empty one and the whole id too), or of an id no stream uses."""
    return st.sampled_from(STREAM_CONVERSATIONS + ("T1/c1", "zz")).flatmap(
        lambda name: st.integers(0, len(name)).map(lambda end: name[:end] + "*")
    )


def _fault_specs():
    return st.tuples(
        st.sampled_from(FAULT_PATTERNS) | _trailing_star_globs(),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(FAULT_OPS),
    )


def _deliveries():
    return st.lists(
        st.tuples(
            st.sampled_from(STREAM_CONVERSATIONS),
            st.sampled_from(STREAM_KINDS),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=12,
    )


@st.composite
def fault_streams(draw):
    """(specs, late spec or None, first stream, second stream).

    spec: (conversation glob, ordinal, (op, structure field, path)).
    stream entry: (conversation id, kind, delay).  The first stream is
    delivered, then the late spec is injected, then the second stream
    is delivered.
    """
    specs = draw(st.lists(_fault_specs(), max_size=6))
    late = draw(st.none() | _fault_specs())
    return specs, late, draw(_deliveries()), draw(_deliveries())


#: dict keys of content trees: few, so random trees often share a shape
CONTENT_KEYS = ("a", "b", "kind")
WILDCARD_LEAVES = ("?string", "?number", "?any")
#: leaves a message may carry, including the bool and None that no
#: pattern accepts
CONTENT_LEAVES = (
    st.text(max_size=3)
    | st.integers(min_value=-2, max_value=2)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.booleans()
    | st.none()
)


def content_trees(leaves=CONTENT_LEAVES):
    """Dicts and lists nested a few levels over the given leaves."""
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=3)
        | st.dictionaries(st.sampled_from(CONTENT_KEYS), kids, max_size=3),
        max_leaves=8,
    )


#: leaves each wildcard accepts
_WILDCARD_FILLS = {
    "?string": st.text(max_size=3),
    "?number": st.integers(min_value=-2, max_value=2) | st.floats(allow_nan=False),
    "?any": st.text(max_size=3) | st.integers(min_value=-2, max_value=2),
}


def _instance_of(draw, pattern):
    """A tree of the pattern's shape whose leaves mostly fit the
    pattern's leaves; about one leaf in four is any leaf at all."""
    if isinstance(pattern, dict):
        return {k: _instance_of(draw, v) for k, v in pattern.items()}
    if isinstance(pattern, list):
        return [_instance_of(draw, v) for v in pattern]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(CONTENT_LEAVES)
    return draw(_WILDCARD_FILLS.get(pattern, st.just(pattern)))


@st.composite
def patterns_and_contents(draw):
    """(pattern, content): about half the contents share the pattern's
    shape, so both the shape walk and the leaf walk get exercised."""
    pattern = draw(content_trees(st.sampled_from(WILDCARD_LEAVES) | CONTENT_LEAVES))
    if draw(st.booleans()):
        return pattern, _instance_of(draw, pattern)
    return pattern, draw(content_trees())


_PERFORMATIVES = ("tell", "ask-one")
_LANGUAGES = ("kv", "prolog")


@st.composite
def message_fields(draw):
    """performative, language, ontology and content of one message."""
    return {
        "performative": draw(st.sampled_from(_PERFORMATIVES)),
        "language": draw(st.sampled_from(_LANGUAGES)),
        "ontology": draw(st.sampled_from(("core", "docs"))),
        "content": draw(content_trees()),
    }


@st.composite
def message_pairs(draw):
    """Two messages' fields; the second is often a copy of the first
    with at most one field redrawn."""
    a = draw(message_fields())
    if draw(st.booleans()):
        return a, draw(message_fields())
    b = dict(a, content=deepcopy(a["content"]))
    field = draw(st.sampled_from(("none", "performative", "language", "ontology", "content")))
    if field != "none":
        b[field] = draw(message_fields())[field]
    return a, b
