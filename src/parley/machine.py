"""Execution helpers for role state machines.

The simulator drives each role as a plain transition system; this
module answers the questions the drivers keep asking: which
transitions can fire on this input, which one fires when several can,
which states replay a journal prefix, and which messages are "weak"
(their emission or reception can only end the interaction).
"""

from __future__ import annotations

from random import Random

from .journal import DataChange, JournalRecord, MessageEmission, MessageReception
from .model import Message, Protocol, RoleStateMachine, Transition

#: bound on the cascade of internal transitions one input sets off
_CASCADE_LIMIT = 8


def pick(options, rng: Random):
    """A seeded draw among ``options``: a lone option is taken without
    touching the stream, more go through ``rng.choice``."""
    return options[0] if len(options) == 1 else rng.choice(options)


def enabled_for_message(
    machine: RoleStateMachine,
    protocol: Protocol,
    state: str,
    msg: Message,
    structural_only: bool = False,
) -> list[Transition]:
    """Receive transitions from ``state`` whose schema accepts ``msg``."""
    hits: list[Transition] = []
    for t in machine.transitions_from(state):
        if t.trigger.kind != "receive":
            continue
        schema = protocol.schema(t.trigger.schema_id)  # type: ignore[arg-type]
        ok = schema.structure_matches(msg) if structural_only else schema.content_matches(msg)
        if ok:
            hits.append(t)
    return hits


def enabled_for_variable(
    machine: RoleStateMachine, state: str, variable: str
) -> list[Transition]:
    return [
        t
        for t in machine.transitions_from(state)
        if t.trigger.kind == "internal" and t.trigger.variable == variable
    ]


def trigger_matches(protocol: Protocol, t: Transition, event) -> bool:
    if t.trigger.kind == "receive":
        return isinstance(event, MessageReception) and protocol.schema(
            t.trigger.schema_id  # type: ignore[arg-type]
        ).content_matches(event.message)
    return isinstance(event, DataChange) and event.variable == t.trigger.variable


def action_matches(protocol: Protocol, t: Transition, outputs: tuple) -> bool:
    if t.action.kind == "none":
        return len(outputs) == 0
    if len(outputs) != 1:
        return False
    out = outputs[0]
    if t.action.kind == "send":
        return isinstance(out, MessageEmission) and protocol.schema(
            t.action.schema_id  # type: ignore[arg-type]
        ).content_matches(out.message)
    return isinstance(out, DataChange) and out.variable == t.action.variable


def replay_states(
    machine: RoleStateMachine,
    protocol: Protocol,
    records: list[JournalRecord] | tuple[JournalRecord, ...],
) -> frozenset[str]:
    """All states the machine can be in after replaying the records.

    A record is replayed by any transition whose trigger matches its
    input event and whose action matches its output events.  The empty
    set means the machine cannot have produced this history.
    """
    here = {machine.initial_state}
    for record in records:
        nxt: set[str] = set()
        for state in here:
            for t in machine.transitions_from(state):
                if trigger_matches(protocol, t, record.input_event) and action_matches(
                    protocol, t, record.output_events
                ):
                    nxt.add(t.to_state)
        if not nxt:
            return frozenset()
        here = nxt
    return frozenset(here)


def replay_state(
    machine: RoleStateMachine,
    protocol: Protocol,
    records: list[JournalRecord] | tuple[JournalRecord, ...],
) -> str | None:
    """One deterministic end state after replay: the least by name of
    :func:`replay_states`, None when the machine cannot have produced
    the records."""
    ends = replay_states(machine, protocol, records)
    return min(ends) if ends else None


def weak_schema_ids(machine: RoleStateMachine) -> frozenset[str]:
    """Schemas whose every occurrence in this role ends the interaction.

    A message is weak for a role when every transition it labels
    (either as the received trigger or as the sent action) leads into a
    terminal state.  Sending or accepting such a message leaves the
    role nothing further to do.  Computed once per machine.
    """
    return machine.derived(_weak_schema_ids)


def _weak_schema_ids(machine: RoleStateMachine) -> frozenset[str]:
    labelled: dict[str, list[Transition]] = {}
    for t in machine.transitions:
        if t.trigger.kind == "receive":
            labelled.setdefault(t.trigger.schema_id, []).append(t)  # type: ignore[arg-type]
        if t.action.kind == "send":
            labelled.setdefault(t.action.schema_id, []).append(t)  # type: ignore[arg-type]
    weak = {
        schema_id
        for schema_id, ts in labelled.items()
        if all(t.to_state in machine.terminal_states for t in ts)
    }
    return frozenset(weak)
