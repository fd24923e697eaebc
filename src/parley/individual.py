"""Individually selected roles and the machinery to swap them mid-run.

With individual selection each side of a conversation picks its own
role and discovers at runtime whether the pick was right.  The picking
side keeps a collection of candidate roles; when an incoming or
outgoing message betrays a wrong pick, the collection is purged of
roles that would repeat the failure, a replacement is chosen, both
journals are cut back to a safe point and the interaction resumes from
there.

Both individual modes rewind by one rule, :func:`rewind`: the roles
about to take over (the replacement in sequential mode, the woken
cohort in mixed mode) each retrace the history as a path in their
method graph, up to the failure.  The journal keeps the records before
the earliest of their points and re-fires the input there; the
counterpart's point counts its own sends the kept records still cover.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from .errors import PointOutOfRangeError
from .journal import Journal
from .machine import (
    WRONG_CONTENT,
    WRONG_STRUCTURE,
    enabled_for,
    enabled_for_message,
    pick,
    replay_states,
    sends_set_off,
    weak_schema_ids,
)
from .model import Message, ProtocolRegistry, RoleRef, Transition

INITIATOR_DETECTED = "initiator"
PARTICIPANT_DETECTED = "participant"


class InteractionError(NamedTuple):
    """A received message the current role cannot account for."""

    kind: str  # WRONG_STRUCTURE | WRONG_CONTENT
    location: int  # 1-based record index at the collection owner
    offending: Message
    detected_by: str  # INITIATOR_DETECTED | PARTICIPANT_DETECTED


def locate_emission(records, reply_with: str) -> int:
    """1-based index of the record that emitted the message tagged
    ``reply_with``; 0 when no record did."""
    for seq, record in enumerate(records, 1):
        sent = record.output
        if isinstance(sent, Message) and sent.reply_with == reply_with:
            return seq
    return 0


# ---------------------------------------------------------------------------
# Role collections: the roles an agent enacts, and those still available
# ---------------------------------------------------------------------------


def receiving_roles(
    roles: tuple[RoleRef, ...], registry: ProtocolRegistry, msg: Message
) -> dict[RoleRef, list[Transition]]:
    """The roles of ``roles`` whose machine accepts ``msg`` in its
    initial state, in order, each with the transitions that take it."""
    hits = {}
    for ref in roles:
        protocol = registry[ref.protocol]
        machine = protocol.roles[ref.role]
        enabled = enabled_for_message(machine, protocol, machine.initial_state, msg)
        if enabled:
            hits[ref] = enabled
    return hits


# ---------------------------------------------------------------------------
# Purge rules
# ---------------------------------------------------------------------------


def purge_collection(
    collection: set[RoleRef],
    registry: ProtocolRegistry,
    records,
    error: InteractionError,
) -> tuple[list[RoleRef], dict[RoleRef, frozenset[str]]]:
    """Split the candidate roles into those that would repeat the failure
    and those kept: (roles dropped, kept role -> the states it replays
    the prefix to), both in role order.

    ``records`` is the journal as it stood when the error was found.
    The prefix is its records before ``error.location``; for an error
    the counterpart detected (an own emission gone wrong), the record
    at the location is the culprit, whose method and input event the
    rules below read.  Each candidate replays the prefix once, and
    :func:`select_replacement_role` ranks the kept roles by the states
    they replayed it to.

    All candidates must be able to replay the prefix.  On top of that:

    * own emission judged structurally wrong -> roles able to produce
      that same structure at this point would fail the same way;
    * own emission judged wrong in content -> the structure itself was
      expected, so roles *unable* to produce it are useless, and roles
      sharing the culprit method would recompute the same values;
    * reception the current role cannot take -> keep exactly the roles
      that can take it (structurally for a structure error, fully for a
      content error).
    """
    prefix = records[: error.location - 1]
    culprit = records[error.location - 1] if error.detected_by == INITIATOR_DETECTED else None
    removed: list[RoleRef] = []
    kept: dict[RoleRef, frozenset[str]] = {}
    for ref in sorted(collection):
        protocol = registry[ref.protocol]
        machine = protocol.roles[ref.role]
        states = replay_states(machine, protocol, prefix)
        drop = False
        if not states:
            drop = True
        elif error.detected_by == INITIATOR_DETECTED:
            enabled = [
                t for state in states
                for t in enabled_for(machine, protocol, state, culprit.input_event)
            ]
            same = any(
                protocol.schemas[t.action.schema_id].structure_matches(error.offending)
                for t in sends_set_off(machine, enabled)
            )
            if error.kind == WRONG_STRUCTURE:
                drop = same
            else:
                drop = not same or culprit.method in machine.method_ids()
        else:
            structural_only = error.kind == WRONG_STRUCTURE
            drop = not any(
                enabled_for_message(machine, protocol, state, error.offending, structural_only)
                for state in states
            )
        if drop:
            removed.append(ref)
        else:
            kept[ref] = states
    return removed, kept


# ---------------------------------------------------------------------------
# Replacement selection
# ---------------------------------------------------------------------------


def _schemas_at_point(machine, starts) -> frozenset[str]:
    """Schemas the role could still send or receive from ``starts``."""
    schemas: set[str] = set()
    for state in machine.reachable(starts):
        for t in machine.transitions_from(state):
            if t.trigger.kind == "receive":
                schemas.add(t.trigger.schema_id)  # type: ignore[arg-type]
            if t.action.kind == "send":
                schemas.add(t.action.schema_id)  # type: ignore[arg-type]
    return frozenset(schemas)


def select_replacement_role(
    kept: dict[RoleRef, frozenset[str]],
    registry: ProtocolRegistry,
    error: InteractionError,
    rng: Random,
) -> RoleRef | None:
    """Choose the next role to enact among the roles a purge kept, each
    with the states it replayed the prefix to (see
    :func:`purge_collection`), in role order; None when the purge kept
    none.

    After a content error the candidates are ranked by how many of
    their still-pending messages are weak - messages whose handling can
    only end the interaction - with the offending structure itself set
    aside.  A role rich in ways out is the conservative pick: if it is
    wrong too, it fails cheaply.  Ties (and structure errors, where the
    journal says nothing about content habits) fall to a seeded draw.
    """
    candidates = list(kept)
    if not candidates:
        return None
    if error.kind == WRONG_CONTENT:
        scores: dict[RoleRef, int] = {}
        for ref, states in kept.items():
            protocol = registry[ref.protocol]
            machine = protocol.roles[ref.role]
            pending = frozenset(
                s
                for s in _schemas_at_point(machine, states)
                if not protocol.schemas[s].structure_matches(error.offending)
            )
            scores[ref] = len(pending & weak_schema_ids(machine))
        top = max(scores.values())
        winners = [ref for ref in candidates if scores[ref] == top]
        return pick(winners, rng)
    return rng.choice(candidates)


# ---------------------------------------------------------------------------
# Method graphs and recovery points
# ---------------------------------------------------------------------------


class MethodGraph(NamedTuple):
    """Methods of a role and which can follow which.

    Method b follows method a when some transition running b starts in
    the state some transition running a ends in.  The initial method is
    the one fired from the machine's initial state, unique in a role
    that passed :func:`parley.model.validate_protocol` (its
    ``initial-method`` check).
    """

    initial: str
    follow: dict[str, frozenset[str]]


def method_graph(machine) -> MethodGraph:
    """The method graph of a role, computed once per machine."""
    return machine.derived(_method_graph)


def _method_graph(machine) -> MethodGraph:
    enders: dict[str, set[str]] = {}
    for t in machine.transitions:
        enders.setdefault(t.to_state, set()).add(t.method)
    follow: dict[str, set[str]] = {t.method: set() for t in machine.transitions}
    for t in machine.transitions:
        for method in enders.get(t.from_state, ()):  # whatever lands here
            follow[method].add(t.method)
    return MethodGraph(
        initial=machine.transitions_from(machine.initial_state)[0].method,
        follow={m: frozenset(s) for m, s in follow.items()},
    )


def compute_recovery_points(records, graph: MethodGraph) -> tuple[int, int]:
    """(counterpart point, own point) for a whole history against a
    method graph: :func:`clamped_recovery_points` with no cap."""
    return clamped_recovery_points(records, graph, len(records) + 1)


def clamped_recovery_points(records, graph: MethodGraph, location: int) -> tuple[int, int]:
    """(counterpart point, own point) for a history against a method graph.

    The own point grows while the records trace a path of the graph
    from its initial method, and never reaches past ``location``, the
    1-based index of the failing record (one past the end for a failed
    reception).  The counterpart point additionally counts how many of
    the traced records were fired by a received message.  Both start at
    1: a history that diverges immediately restarts the interaction
    from scratch.
    """
    if not records or records[0].method != graph.initial:
        return 1, 1
    i = j = 1
    current = records[0].method
    for record in records[1:location]:
        if record.method not in graph.follow.get(current, frozenset()):
            break
        current = record.method
        j += 1
        if isinstance(record.input_event, Message):
            i += 1
    return i, j


def truncate_counterpart(journal: Journal, point: int) -> None:
    """Keep the records up to and including the ``point``-th own
    emission; later records are rolled back."""
    if point < 1:
        raise PointOutOfRangeError(f"point {point} must be positive")
    emitted = 0
    for seq, record in enumerate(journal.records, 1):
        emitted += isinstance(record.output, Message)
        if emitted >= point:
            journal.keep_first(seq)
            return
    raise PointOutOfRangeError(
        f"journal holds {emitted} emissions, point {point} asks for more"
    )


def refire_input(records, point: int, offending: Message | None):
    """The input event to feed the replacement role: the recorded input
    at the point, or the stored offending message when the point sits
    one past the recorded history."""
    if 1 <= point <= len(records):
        return records[point - 1].input_event
    if point == len(records) + 1 and offending is not None:
        return offending
    raise PointOutOfRangeError(f"nothing to re-fire at point {point}")


def rewind(journal: Journal, machines, location: int, offending: Message | None):
    """Cut ``journal`` back to the earliest recovery points of the role
    ``machines`` about to take over, capped at the failure ``location``.
    Returns (counterpart point, own point, input to re-fire): the input
    recorded at the own point, or ``offending`` one past the history.
    The records before the own point are kept; the one at the point is
    re-fired, and everything after it never happened."""
    records = journal.records
    points = [clamped_recovery_points(records, method_graph(m), location) for m in machines]
    own_point = min(p[1] for p in points)
    refire = refire_input(records, own_point, offending)
    journal.keep_first(own_point - 1)
    return min(p[0] for p in points), own_point, refire
