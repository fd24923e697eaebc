"""Execution helpers for role state machines.

The simulator drives each role as a plain transition system; this
module answers the questions the drivers keep asking: which
transitions can fire on this input, which one fires when several can,
which states replay a journal prefix, and which messages are "weak"
(their emission or reception can only end the interaction).  It also
holds :class:`MachineDriver`, which enacts one role over one journal
and sends along the journal's route, with the journal's reply tags.

Every role machine steps by one rule, :func:`cascade`: an input event
fires one of the transitions it enables, and an internal transition
then fires on a change of the named agent variable - the change the
transition just fired wrote, and no other.  A send or an action of
kind ``none`` writes nothing, so the cascade stops there; it stops too
where the written variable enables nothing.  The cascade returns one
:class:`journal.JournalRecord` per transition it fired, and the caller
extends a journal with them.
"""

from __future__ import annotations

from random import Random
from typing import Callable

from .journal import DataChange, Journal, JournalRecord, MessageEmission, MessageReception
from .model import (
    Message,
    MessageSchema,
    Protocol,
    ProtocolRegistry,
    RoleRef,
    RoleStateMachine,
    Transition,
)
from .patterns import fill_pattern

#: bound on the cascade of internal transitions one input sets off
_CASCADE_LIMIT = 8

WRONG_STRUCTURE = "wrong-structure"
WRONG_CONTENT = "wrong-content"


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
        schema = protocol.schemas[t.trigger.schema_id]  # type: ignore[index]
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


def enabled_for(
    machine: RoleStateMachine, protocol: Protocol, state: str, event
) -> list[Transition]:
    """Transitions from ``state`` that an input event fires: receive
    transitions whose schema accepts a reception, internal ones on the
    variable a data change writes."""
    if isinstance(event, MessageReception):
        return enabled_for_message(machine, protocol, state, event.message)
    return enabled_for_variable(machine, state, event.variable)


def rejection_kind(placed, msg: Message) -> str:
    """The error kind of a message that no candidate takes in full.

    ``placed`` yields a (machine, protocol, state) triple per candidate
    role.  Structure is judged before content: only a message that fits
    an expected shape somewhere can be blamed on its values.
    """
    for machine, protocol, state in placed:
        if enabled_for_message(machine, protocol, state, msg, structural_only=True):
            return WRONG_CONTENT
    return WRONG_STRUCTURE


def cascade(
    protocol: Protocol,
    machine: RoleStateMachine,
    enabled: list[Transition],
    event,
    emit: Callable[[MessageSchema], Message],
    rng: Random,
) -> tuple[Transition, tuple[JournalRecord, ...], Message | None]:
    """Fire one of ``enabled`` on ``event``, then the internal
    transitions it sets off, by the rule of this module.

    ``enabled`` holds the transitions found to take ``event`` in the
    current state, at least one.  ``emit`` makes the message a send transition sends
    from its schema.  A data change writes the value of the input: the
    content of a reception, the value of a change.  Returns the last
    transition fired (its ``to_state`` is the state reached), one
    record per transition fired, and the message sent, None when the
    cascade ends without a send.
    """
    value = event.message.content if isinstance(event, MessageReception) else event.value
    records: list[JournalRecord] = []
    sent = None
    for _ in range(_CASCADE_LIMIT):
        t = pick(enabled, rng)
        kind = t.action.kind
        if kind == "send":
            sent = emit(protocol.schemas[t.action.schema_id])  # type: ignore[index]
            outputs: tuple = (MessageEmission(sent),)
        elif kind == "data_change":
            outputs = (DataChange(t.action.variable, value),)
        else:
            outputs = ()
        records.append(JournalRecord(t.method, event, outputs))
        if kind != "data_change":
            break  # a send or no action writes nothing
        event = outputs[0]
        enabled = enabled_for_variable(machine, t.to_state, event.variable)
        if not enabled:
            break
    return t, tuple(records), sent


def trigger_matches(protocol: Protocol, t: Transition, event) -> bool:
    if t.trigger.kind == "receive":
        return isinstance(event, MessageReception) and protocol.schemas[
            t.trigger.schema_id  # type: ignore[index]
        ].content_matches(event.message)
    return isinstance(event, DataChange) and event.variable == t.trigger.variable


def action_matches(protocol: Protocol, t: Transition, outputs: tuple) -> bool:
    if t.action.kind == "none":
        return len(outputs) == 0
    if len(outputs) != 1:
        return False
    out = outputs[0]
    if t.action.kind == "send":
        return isinstance(out, MessageEmission) and protocol.schemas[
            t.action.schema_id  # type: ignore[index]
        ].content_matches(out.message)
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


# ---------------------------------------------------------------------------
# Machine driver: one enacted role over one journal
# ---------------------------------------------------------------------------


class MachineDriver:
    """Journaled execution of a single role state machine.

    Each input - a reception, or a data change that starts or resumes
    the role - fires one :func:`cascade`, whose records extend the
    journal.  The driver never judges an incoming message - callers
    match it first (:meth:`accepting`) and hand the transitions that
    take it to :meth:`receive`, so nothing invalid is ever journaled and
    nothing is matched twice.
    """

    def __init__(
        self,
        ref: RoleRef,
        registry: ProtocolRegistry,
        journal: Journal,
        content_overrides: dict[str, dict] | None = None,
    ) -> None:
        self.protocol = registry[ref.protocol]
        self.machine = self.protocol.roles[ref.role]
        self.journal = journal
        self.content_overrides = content_overrides or {}
        self.state = self.machine.initial_state

    @property
    def terminated(self) -> bool:
        return self.state in self.machine.terminal_states

    def _emit(self, schema: MessageSchema) -> Message:
        # a task's contents were checked against their schemas when read
        content = self.content_overrides.get(schema.schema_id)
        if content is None:
            content = fill_pattern(schema.content_pattern)
        journal = self.journal
        return Message(
            performative=schema.performative,
            content=content,
            language=schema.language,
            ontology=schema.ontology,
            sender=journal.me,
            receiver=journal.peer,
            conversation_id=journal.conversation_id,
            reply_with=journal.tag(),
        )

    def accepting(self, msg: Message) -> list[Transition]:
        """The receive transitions of the current state that take ``msg``."""
        return enabled_for_message(self.machine, self.protocol, self.state, msg)

    def rejection_kind(self, msg: Message) -> str:
        """The error kind of a message :meth:`accepting` found no transition for."""
        return rejection_kind([(self.machine, self.protocol, self.state)], msg)

    def receive(self, msg: Message, enabled: list[Transition], rng: Random) -> Message | None:
        """Journal a reception and everything it sets off; ``enabled``
        holds the transitions found to take it in the current state.
        Returns the message sent, if any."""
        return self._run(MessageReception(msg), enabled, rng)

    def resume(self, event, rng: Random) -> Message | None:
        """Fire an input event nobody matched yet: the data change that
        starts an initiator's role, or the input a recovery re-fires.
        Nothing fires when no transition of the current state takes it."""
        enabled = enabled_for(self.machine, self.protocol, self.state, event)
        return self._run(event, enabled, rng) if enabled else None

    def replay(self) -> None:
        """Rebuild the state from the journal as it stands."""
        self.state = (
            replay_state(self.machine, self.protocol, self.journal.records)
            or self.machine.initial_state
        )

    def _run(self, event, enabled: list[Transition], rng: Random) -> Message | None:
        last, records, sent = cascade(
            self.protocol, self.machine, enabled, event, self._emit, rng
        )
        self.journal.records.extend(records)
        self.state = last.to_state
        return sent
