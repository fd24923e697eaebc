"""Independent reference answers for the trickier selection decisions.

Everything here works on plain data (strings, dicts, tuples) and is
written against the decision *rules*, not against the package code, so
a test can compare the two without circularity.  Keep these slow and
obvious: brute force where possible.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from fnmatch import fnmatch
from itertools import permutations


# ---------------------------------------------------------------------------
# Largest candidate set
# ---------------------------------------------------------------------------

def oracle_largest_set(
    replies: dict[str, list[str]], identified: set[str]
) -> tuple[str, frozenset[str]] | None:
    """Which role gets the many-instance assignment, and by whom.

    replies: agent -> ordered role labels ("protocol:role").
    identified: protocol ids the caller actually asked about.

    Rules, re-derived by hand:
      1. ignore roles of protocols outside `identified`;
      2. a role backed by every replier wins (smallest label on ties);
      3. otherwise scan backing sizes descending; inside a size group a
         role whose *exclusive* backers (agents backing no other role of
         the group) outnumber everyone else's wins; all-equal groups
         yield their smallest label;
      4. an undecided group (tied exclusives) is parked - only the first
         such group is kept - and the scan goes on; a later winner is
         then traded for the parked set overlapping it the most
         (smallest label on ties); no later winner means the parked
         group's smallest label wins by default.
    """
    n = len(replies)
    if n == 0:
        return None
    backers: dict[str, set[str]] = {}
    for agent, roles in replies.items():
        for label in roles:
            if label.split(":", 1)[0] in identified:
                backers.setdefault(label, set()).add(agent)
    if not backers:
        return None

    unanimous = sorted(label for label, agents in backers.items() if len(agents) == n)
    if unanimous:
        return unanimous[0], frozenset(backers[unanimous[0]])

    parked: list[tuple[str, frozenset[str]]] = []
    winner: tuple[str, frozenset[str]] | None = None
    for size in range(n - 1, 0, -1):
        group = sorted(label for label, agents in backers.items() if len(agents) == size)
        if not group:
            continue
        distinct = {frozenset(backers[label]) for label in group}
        if len(distinct) == 1:
            winner = (group[0], frozenset(backers[group[0]]))
            break
        # how many of the group's roles each agent backs
        load = Counter(agent for label in group for agent in backers[label])
        exclusive = {
            label: sum(1 for agent in backers[label] if load[agent] == 1)
            for label in group
        }
        best = max(exclusive.values())
        leaders = [label for label in group if exclusive[label] == best]
        if len(leaders) == 1:
            winner = (leaders[0], frozenset(backers[leaders[0]]))
            break
        if not parked:
            parked = [(label, frozenset(backers[label])) for label in group]

    if winner is None:
        if not parked:
            return None
        return min(parked)
    if parked:
        overlap = {label: len(agents & winner[1]) for label, agents in parked}
        top = max(overlap.values())
        return min((label, agents) for label, agents in parked if overlap[label] == top)
    return winner


# ---------------------------------------------------------------------------
# Injective role allocation
# ---------------------------------------------------------------------------

def oracle_injective_exists(candidates: dict[str, set[str]]) -> bool:
    """True iff distinct agents can cover all roles (brute force)."""
    roles = sorted(candidates)
    agents = sorted({a for pool in candidates.values() for a in pool})
    if len(agents) < len(roles):
        return False
    for combo in permutations(agents, len(roles)):
        if all(agent in candidates[role] for role, agent in zip(roles, combo)):
            return True
    return False


def oracle_assignment_valid(
    candidates: dict[str, set[str]], assignment: dict[str, str]
) -> bool:
    """Every role assigned, from its own pool, injectively when possible."""
    if set(assignment) != set(candidates):
        return False
    if any(agent not in candidates[role] for role, agent in assignment.items()):
        return False
    if len(set(assignment.values())) < len(assignment):
        return not oracle_injective_exists(candidates)
    return True


def oracle_assign_roles(
    protocol: str, order: list[str], replies: dict[str, list[str]], rng
) -> dict[str, str] | None:
    """The 1:N allocation, drawing from ``rng`` exactly as the package does.

    order: the protocol's participant roles in father order.
    replies: agent -> role labels ("protocol:role") it offered.
    Returns {label: agent}, or None when some role has no backer.

    Before the walk, and after each draw, an agent that is the only
    candidate of a role leaves every other non-singleton set, to a
    fixpoint.  Each role in turn draws (``rng.choice``, sorted pool)
    among the unused agents that leave the roles after it a set of
    distinct unused agents -- checked agent by agent, by brute force --
    or from its whole pool when no agent does; the drawn agent then
    leaves the non-singleton sets of the roles after it.
    """
    order = [f"{protocol}:{role}" for role in order]
    pools = {label: {a for a in replies if label in replies[a]} for label in order}
    if any(not agents for agents in pools.values()):
        return None

    def strip(pending: list[str]) -> None:
        changed = True
        while changed:
            changed = False
            for label in pending:
                if len(pools[label]) != 1:
                    continue
                owner = next(iter(pools[label]))
                for other in pending:
                    if other != label and len(pools[other]) > 1 and owner in pools[other]:
                        pools[other].discard(owner)
                        changed = True

    pending = list(order)
    strip(pending)
    assignment: dict[str, str] = {}
    for label in order:
        pending.remove(label)
        pool = sorted(pools[label])
        viable = [
            agent
            for agent in pool
            if agent not in assignment.values()
            and oracle_injective_exists(
                {rest: pools[rest] - set(assignment.values()) - {agent} for rest in pending}
            )
        ]
        agent = rng.choice(viable if viable else pool)
        assignment[label] = agent
        for other in pending:
            if len(pools[other]) > 1:
                pools[other].discard(agent)
        strip(pending)
    return assignment


# ---------------------------------------------------------------------------
# Recovery points
# ---------------------------------------------------------------------------

def oracle_recovery_points(
    records: list[tuple[str, bool]],
    initial: str,
    follow: dict[str, frozenset[str] | set[str]],
) -> tuple[int, int]:
    """(initiator point, participant point) for a journal vs a method graph.

    records: per journal record, (method id, input was a message).
    The participant point is the length of the longest record prefix
    tracing a path of the graph from its initial method (never below 1);
    the initiator point is one more than the number of message-driven
    records in that prefix *after* the first record.
    """
    k = 0
    if records and records[0][0] == initial:
        k = 1
        while k < len(records) and records[k][0] in follow.get(records[k - 1][0], ()):
            k += 1
    j = max(k, 1)
    i = 1 + sum(1 for method, is_msg in records[1:k] if is_msg)
    return i, j


# ---------------------------------------------------------------------------
# Fault firing
# ---------------------------------------------------------------------------

def oracle_apply_faults(
    faults: list[tuple[str, int, int]], stream: list[tuple[str, bool]]
) -> list[list[int]]:
    """Which fault specs fire on each delivery, by scanning every spec.

    faults: (conversation glob, ordinal, first delivery it sees) per
    spec, in injection order; a spec injected before the run sees
    delivery 0.
    stream: (conversation id, counted) per delivery, in delivery order.
    Returns, per delivery, the indices of the specs that fire on it, in
    the order they apply.

    A spec counts every counted delivery, from its first one, of any
    conversation its glob matches; it fires once, on the delivery that
    brings the count to its ordinal.
    """
    seen = [0] * len(faults)
    used = [False] * len(faults)
    fired: list[list[int]] = []
    for k, (conversation, counted) in enumerate(stream):
        hits = []
        for i, (pattern, ordinal, first) in enumerate(faults):
            if not counted or k < first or used[i] or not fnmatch(conversation, pattern):
                continue
            seen[i] += 1
            if seen[i] == ordinal:
                used[i] = True
                hits.append(i)
        fired.append(hits)
    return fired


# ---------------------------------------------------------------------------
# Delivery order
# ---------------------------------------------------------------------------

def oracle_delivery_order(runs: list[list[tuple[int, tuple]]]) -> list[tuple[int, int]]:
    """The (tick, seq) of every delivery when all pending sends share one
    heap keyed by (tick, seq).

    runs: per run, the sends made just before it, each ``(delay, node)``;
    the first run's are made at tick 0, a later run's at the tick the
    previous run stopped in.  A node is ``(raises, children)``: its
    delivery sends each ``(delay, child)`` in order, then ends the run
    when ``raises`` is true.  Sends are numbered 1, 2, ... in the order
    they are made.
    """
    heap: list[tuple[int, int, tuple]] = []
    seq = tick = 0
    order: list[tuple[int, int]] = []
    for sends in runs:
        for delay, node in sends:
            seq += 1
            heapq.heappush(heap, (tick + delay, seq, node))
        while heap:
            tick, delivered, (raises, children) = heapq.heappop(heap)
            order.append((tick, delivered))
            for delay, child in children:
                seq += 1
                heapq.heappush(heap, (tick + delay, seq, child))
            if raises:
                break
    return order


# ---------------------------------------------------------------------------
# Run summary counts
# ---------------------------------------------------------------------------

def oracle_summary_counts(
    events: list[tuple[str, dict]], conversations: dict[str, set[str]]
) -> dict[str, tuple[int, int]]:
    """task id -> (messages, recoveries), rescanning the trace per task.

    events: (kind, payload) per trace event, in trace order.
    conversations: task id -> the conversation ids of the task.
    Messages are the task's sends between two different agents, so
    self-addressed wakes do not count; recoveries are its recovery
    events.
    """
    counts = {}
    for task, convs in conversations.items():
        messages = sum(
            1 for kind, p in events
            if kind == "send" and p.get("conversation") in convs
            and p.get("from") != p.get("to")
        )
        recoveries = sum(
            1 for kind, p in events
            if kind == "recovery" and p.get("conversation") in convs
        )
        counts[task] = (messages, recoveries)
    return counts


# ---------------------------------------------------------------------------
# Role machines, message matching and trace lines, done the long way
# ---------------------------------------------------------------------------

def oracle_transitions_from(
    transitions: list[tuple[str, str, str]], state: str
) -> list[tuple[str, str, str]]:
    """The transitions leaving ``state``, by scanning every transition.

    transitions: (from state, to state, method) per transition, in
    declaration order; the answer keeps that order.
    """
    return [t for t in transitions if t[0] == state]


WILDCARD_TYPES = {"?string": (str,), "?number": (int, float), "?any": (str, int, float)}


def _leaf(value) -> bool:
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


def oracle_shape_matches(pattern, value) -> bool:
    """First walk: the same dict keys, the same list lengths, and a
    scalar wherever the pattern has a leaf."""
    if isinstance(pattern, dict):
        return (
            isinstance(value, dict)
            and sorted(pattern) == sorted(value)
            and all(oracle_shape_matches(pattern[k], value[k]) for k in pattern)
        )
    if isinstance(pattern, list):
        return (
            isinstance(value, list)
            and len(pattern) == len(value)
            and all(oracle_shape_matches(p, v) for p, v in zip(pattern, value))
        )
    return _leaf(value)


def oracle_leaves_match(pattern, value) -> bool:
    """Second walk, over trees that already agree in shape: a wildcard
    checks the leaf's type, a concrete leaf needs the same type and value."""
    if isinstance(pattern, dict):
        return all(oracle_leaves_match(pattern[k], value[k]) for k in pattern)
    if isinstance(pattern, list):
        return all(oracle_leaves_match(p, v) for p, v in zip(pattern, value))
    if isinstance(pattern, str) and pattern in WILDCARD_TYPES:
        return isinstance(value, WILDCARD_TYPES[pattern])
    return type(pattern) is type(value) and pattern == value


def oracle_schema_accepts(schema: dict, msg: dict) -> bool:
    """A message fits a schema: the same performative, language and
    ontology, then the shape walk, then the leaf walk.

    schema: performative, language, ontology and pattern.
    msg: performative, language, ontology and content.
    """
    return (
        all(schema[f] == msg[f] for f in ("performative", "language", "ontology"))
        and oracle_shape_matches(schema["pattern"], msg["content"])
        and oracle_leaves_match(schema["pattern"], msg["content"])
    )


def oracle_shape_key(value):
    """A fingerprint of a content tree's structure, leaves left out."""
    if isinstance(value, dict):
        return ("map", tuple(sorted((k, oracle_shape_key(v)) for k, v in value.items())))
    if isinstance(value, list):
        return ("seq", tuple(oracle_shape_key(v) for v in value))
    return "leaf"


def oracle_same_signature(a: dict, b: dict) -> bool:
    """Two messages share a signature: equal structure fingerprints
    (performative, language, ontology, content shape) and equal content.

    a, b: performative, language, ontology and content.
    """
    def key(m: dict) -> tuple:
        return (m["performative"], m["language"], m["ontology"], oracle_shape_key(m["content"]))

    return key(a) == key(b) and a["content"] == b["content"]


def oracle_zone_coherent(zone) -> bool:
    """The active instances of a control zone agree: the replies they
    generated last (those that generated one) share one signature.

    zone: a control zone; only each instance's ``activation`` and
    ``last_message`` are read.
    """
    generated = [
        instance.last_message._asdict()
        for instance in zone.instances.values()
        if instance.activation == "active" and instance.last_message is not None
    ]
    return all(oracle_same_signature(generated[0], m) for m in generated[1:])


def oracle_render(events: list[tuple[object, str, dict]]) -> str:
    """The JSON Lines trace, one ``json.dumps`` per event.

    events: (tick, kind, payload) per event.  A line holds the tick, the
    kind, then the payload's fields; a payload field named ``tick`` or
    ``kind`` overwrites that value in place.
    """
    return "".join(
        json.dumps({"tick": tick, "kind": kind, **payload}) + "\n"
        for tick, kind, payload in events
    )
