"""Joint selection of a protocol and of the agents enacting its roles.

An initiator holding a task first builds a candidate matrix: one row
per protocol able to carry the task, one column per agent known to
enact a role of that protocol.  Exploration then walks the matrix one
vector at a time (rows or columns, as the scenario's exploration says),
always starting from the vector with the most cells, and runs a
five-performative exchange with the candidates:

    call-for-collaboration ->  ready-to-select | unable-to-select
    then                       notify-assignment | stop-selection

A vector yields (protocol, agents) cells, a row one cell and a column
one per protocol, and arbitration depends on the category of the cell's
protocol: one-to-one interactions accept the first agreeable agent,
called one by one, while over one broadcast to the cell single-role
many-instance protocols pick the role backed by the largest candidate
set, and multi-role protocols allocate one agent per role along the
protocol's father forest (a loaded protocol has a forest).

This module holds the pure parts: the matrix and its exploration
order, the roles a participant offers and the two broadcast arbitration
rules.  The exchange itself runs on the bus, one-to-one and broadcast
alike, between :class:`parley.agents.JointInitiator`, which takes the
first usable role of a one-to-one offer itself, and
:class:`parley.agents.SelectionParticipant`.
"""

from __future__ import annotations

from random import Random
from typing import Collection, Container, NamedTuple

from .model import (
    Protocol,
    ProtocolRegistry,
    RoleRef,
    TaskDescription,
    father_order,
)

# ---------------------------------------------------------------------------
# Candidate matrix
# ---------------------------------------------------------------------------


class CandidateMatrix(NamedTuple):
    """Protocol x agent incidence for one task.

    Every row and every column is listed once, when the matrix is built,
    so reading one, or the number of its cells, does not scan the matrix.
    Every protocol has a row, an empty one included, and every agent a
    column.  The cells are the (protocol_id, agent_id) pairs of the rows.
    ``protocols`` and ``agents`` are sorted, so the first of several
    vectors in their order is the one with the smallest label.
    """

    protocols: tuple[str, ...]
    agents: tuple[str, ...]
    #: protocol id -> the agents of its row, in agent order
    rows: dict[str, tuple[str, ...]]
    #: agent id -> the protocols of its column, in protocol order
    columns: dict[str, tuple[str, ...]]
    #: the participant roles of its protocols: the only roles a selection
    #: assigns, whatever the offers list
    roles: frozenset[RoleRef]


def build_candidate_matrix(
    task: TaskDescription, candidates: Collection[tuple[Protocol, str]]
) -> CandidateMatrix:
    """Cross the matched protocols with the agents identified for each.

    ``task.participants`` maps protocol_id to the agents the initiator
    believes can enact a participant role of that protocol.
    """
    protocol_ids = sorted({p.protocol_id for p, _ in candidates})
    # unknown rows stay empty
    rows = {p: tuple(sorted(set(task.participants.get(p, ())))) for p in protocol_ids}
    columns: dict[str, list[str]] = {}
    for protocol_id, row in rows.items():
        for agent in row:
            columns.setdefault(agent, []).append(protocol_id)
    return CandidateMatrix(
        protocols=tuple(protocol_ids),
        agents=tuple(sorted(columns)),
        rows=rows,
        columns={agent: tuple(protocols) for agent, protocols in columns.items()},
        roles=frozenset(
            RoleRef(p.protocol_id, m.role_id) for p, _ in candidates for m in p.participant_roles()
        ),
    )


PROTOCOL_ORIENTED = "protocol-oriented"
AGENT_ORIENTED = "agent-oriented"


def next_vector(
    matrix: CandidateMatrix, mode: str, explored: frozenset[str] | set[str]
) -> str | None:
    """The least sparse unexplored vector: the row (or column) with the
    most cells.  Ties break on the lexicographically smaller label;
    vectors without any cell are never worth exploring.  ``mode`` is
    one of the two orientations: a scenario names no other."""
    if mode == PROTOCOL_ORIENTED:
        labels, vectors = matrix.protocols, matrix.rows
    else:
        labels, vectors = matrix.agents, matrix.columns
    best: str | None = None
    best_count = 0
    for label in labels:
        if label in explored:
            continue
        n = len(vectors[label])
        if n > best_count:
            best, best_count = label, n
    return best


# ---------------------------------------------------------------------------
# Offers
#
# An offer is the tuple of roles a participant's ready-to-select lists,
# in its order of preference, empty for an offer of no role.  The
# initiator checks a content once, where it reads it
# (``JointInitiator._read_offer``), and the arbitration rules take the
# offers as ``agent -> roles``.
# ---------------------------------------------------------------------------


def offered_roles(
    mine: tuple[RoleRef, ...],
    table: frozenset[tuple[RoleRef, RoleRef]],
    registry: ProtocolRegistry,
) -> dict[str, tuple[RoleRef, ...]]:
    """Protocol id -> the participant roles the agent can commit to for
    a call naming it, for every protocol of ``registry``: its roles of
    that protocol plus every role of ``mine`` (the participant roles it
    enacts, in role order) that ``table`` pairs with the protocol's
    initiator role, as ``(initiator role, participant role)``.  Roles of
    the called protocol come first, then the rest, each in role order."""
    offers: dict[str, tuple[RoleRef, ...]] = {}
    for protocol_id, protocol in registry.items():
        caller = RoleRef(protocol_id, protocol.initiator_role().role_id)
        own = [r for r in mine if r.protocol == protocol_id]
        other = [r for r in mine if r.protocol != protocol_id and (caller, r) in table]
        offers[protocol_id] = (*own, *other)
    return offers


# ---------------------------------------------------------------------------
# Arbitration: largest candidate set (single role, many instances)
# ---------------------------------------------------------------------------


def select_largest_set(
    replies: dict[str, tuple[RoleRef, ...] | list[RoleRef]],
    identified_protocols: Container[str],
) -> tuple[RoleRef, frozenset[str]] | None:
    """Pick the role backed by the largest candidate set.

    Roles of protocols the initiator never identified are dropped
    first.  A role listed by every replier wins outright.  Otherwise
    roles are grouped by how many agents listed them and the groups are
    scanned from the most-backed down:

    * all candidate sets in the group equal -> pick one role (smallest
      label);
    * otherwise compare each set's private part (its difference with
      the union of the others); a unique largest private part wins;
    * a tie means no decision: the group's sets are remembered (for the
      highest undecided group only) and the scan continues.

    When a later group does produce a winner, the remembered sets are
    reconsidered: the one overlapping the winner's set the most is
    adopted instead, together with its own role.  When the scan ends
    with nothing but remembered sets, the smallest-labelled remembered
    role is adopted.  Returns None when nothing was selectable at all.
    """
    if not replies:
        return None
    n = len(replies)
    backing: dict[RoleRef, set[str]] = {}
    for agent in sorted(replies):
        for ref in replies[agent]:
            if ref.protocol in identified_protocols:
                backing.setdefault(ref, set()).add(agent)
    if not backing:
        return None

    full = sorted(r for r, agents in backing.items() if len(agents) == n)
    if full:
        return full[0], frozenset(backing[full[0]])

    saved: list[tuple[RoleRef, frozenset[str]]] | None = None
    chosen: tuple[RoleRef, frozenset[str]] | None = None
    for size in range(n - 1, 0, -1):
        group = sorted(r for r, agents in backing.items() if len(agents) == size)
        if not group:
            continue
        sets = [backing[r] for r in group]
        if all(s == sets[0] for s in sets):
            chosen = (group[0], frozenset(backing[group[0]]))
            break
        private: dict[RoleRef, set[str]] = {}
        for ref in group:
            others: set[str] = set()
            for other in group:
                if other != ref:
                    others |= backing[other]
            private[ref] = backing[ref] - others
        top = max(len(p) for p in private.values())
        winners = [r for r in group if len(private[r]) == top]
        if len(winners) == 1:
            chosen = (winners[0], frozenset(backing[winners[0]]))
            break
        if saved is None:  # remember only the highest undecided group
            saved = [(r, frozenset(backing[r])) for r in group]

    if chosen is None:  # some group had a role, so the highest undecided one is saved
        return min(saved, key=lambda item: item[0])
    if saved is not None:
        return min(saved, key=lambda item: (-len(item[1] & chosen[1]), item[0]))
    return chosen


# ---------------------------------------------------------------------------
# Arbitration: role allocation along the father forest (multi-role)
# ---------------------------------------------------------------------------


def _injective_matching(
    roles: list[RoleRef], candidates: dict[RoleRef, set[str]], used: set[str]
) -> dict[str, RoleRef] | None:
    """Distinct unused agents for the remaining roles, as agent -> role,
    or None when no such matching exists (augmenting paths)."""
    match: dict[str, RoleRef] = {}
    if all(_augment(role, set(), candidates, used, match) for role in roles):
        return match
    return None


def _augment(
    role: RoleRef,
    seen: set[str],
    candidates: dict[RoleRef, set[str]],
    used: set[str],
    match: dict[str, RoleRef],
) -> bool:
    """Give ``role`` an agent in ``match``, moving earlier roles along
    an augmenting path if need be; False when there is no such path."""
    for agent in sorted(candidates[role]):
        if agent in used or agent in seen:
            continue
        seen.add(agent)
        if agent not in match or _augment(match[agent], seen, candidates, used, match):
            match[agent] = role
            return True
    return False


def _viable(
    pool: list[str],
    pending: list[RoleRef],
    candidates: dict[RoleRef, set[str]],
    used: set[str],
) -> list[str]:
    """The unused agents of ``pool`` whose draw keeps an injective
    completion of ``pending`` reachable.

    One witness matching of the pending roles decides most of them:
    without one nobody is viable, and an agent outside it leaves it
    intact.  Only the agents inside it (at most one per pending role)
    need a matching of their own.
    """
    witness = _injective_matching(pending, candidates, used)
    if witness is None:
        return []
    return [
        agent
        for agent in pool
        if agent not in used
        and (
            agent not in witness
            or _injective_matching(pending, candidates, used | {agent}) is not None
        )
    ]


def _strip_singletons(
    candidates: dict[RoleRef, set[str]], pending: list[RoleRef]
) -> None:
    """Propagate the singleton rule to a fixpoint: an agent that is the
    only candidate of some role is withdrawn from every other set that
    is not itself a singleton."""
    changed = True
    while changed:
        changed = False
        for role in pending:
            if len(candidates[role]) != 1:
                continue
            (owner,) = candidates[role]
            for other in pending:
                if other == role or len(candidates[other]) <= 1:
                    continue
                if owner in candidates[other]:
                    candidates[other].discard(owner)
                    changed = True


def assign_roles_1_n(
    replies: dict[str, tuple[RoleRef, ...]], protocol: Protocol, rng: Random
) -> dict[RoleRef, str] | None:
    """Allocate one agent to every participant role of ``protocol``, as
    role -> agent; None when some role has no candidate.

    Allocation walks the father forest breadth-first, drawing an agent
    for each role from its candidate set.  Draws are restricted to
    agents that keep an injective completion reachable whenever one is
    reachable at all, so several roles share an agent only when no
    injective allocation exists.  After every assignment the assigned
    agent is withdrawn from the remaining non-singleton sets (the
    singleton rule is also applied before the walk and after each
    withdrawal).
    """
    order = [RoleRef(protocol.protocol_id, rid) for rid in father_order(protocol)]
    candidates: dict[RoleRef, set[str]] = {ref: set() for ref in order}
    for agent in sorted(replies):
        for ref in replies[agent]:
            if ref in candidates:
                candidates[ref].add(agent)
    if any(not agents for agents in candidates.values()):
        return None
    pending = list(order)
    _strip_singletons(candidates, pending)
    assignment: dict[RoleRef, str] = {}
    used: set[str] = set()
    for ref in order:
        pending.remove(ref)
        pool = sorted(candidates[ref])
        viable = _viable(pool, pending, candidates, used)
        agent = rng.choice(viable if viable else pool)
        assignment[ref] = agent
        used.add(agent)
        for other in pending:
            if len(candidates[other]) > 1:
                candidates[other].discard(agent)
        _strip_singletons(candidates, pending)
    return assignment
