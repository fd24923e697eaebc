"""Execution helpers for role state machines.

The simulator drives each role as a plain transition system; this
module answers the questions the drivers keep asking: which
transitions can fire on this input (one rule, :func:`enabled_for`,
which journal replay and the purge rules ask too), which one fires
when several can, which states replay a journal prefix, and which
messages are "weak" (their emission or reception can only end the
interaction).  It also holds :class:`MachineDriver`, the one enactment
of a role: its position (protocol, machine, state) over one journal,
whose route addresses what it sends.  Every role an agent enacts,
mixed zone instances too, is a driver.

Every role machine steps by one rule, :meth:`MachineDriver.fire`: an
input event fires one of the transitions it enables, and an internal
transition then fires on a change of the named agent variable - the
change the transition just fired wrote, and no other.  A send or an
action of kind ``none`` writes nothing, so the cascade stops there; it
stops too where the written variable enables nothing.
"""

from __future__ import annotations

from random import Random

from .journal import DataChange, Journal, JournalRecord
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


def enabled_for_variable(machine: RoleStateMachine, state: str, variable: str) -> list[Transition]:
    """Internal transitions from ``state`` that a change of ``variable`` fires."""
    return [
        t
        for t in machine.transitions_from(state)
        if t.trigger.kind == "internal" and t.trigger.variable == variable
    ]


def enabled_for(
    machine: RoleStateMachine, protocol: Protocol, state: str, event
) -> list[Transition]:
    """Transitions from ``state`` that an input event fires: receive
    transitions whose schema accepts a message received, internal ones
    on the variable a data change writes."""
    if isinstance(event, Message):
        return enabled_for_message(machine, protocol, state, event)
    return enabled_for_variable(machine, state, event.variable)


def rejection_kind(drivers, msg: Message) -> str:
    """The error kind of a message that none of ``drivers`` takes in full.

    Structure is judged before content: only a message that fits an
    expected shape in some driver's current state can be blamed on its
    values.
    """
    for d in drivers:
        if enabled_for_message(d.machine, d.protocol, d.state, msg, structural_only=True):
            return WRONG_CONTENT
    return WRONG_STRUCTURE


def action_matches(protocol: Protocol, t: Transition, output) -> bool:
    kind = t.action.kind
    if kind == "none":
        return output is None
    if kind == "send":
        return isinstance(output, Message) and protocol.schemas[
            t.action.schema_id  # type: ignore[index]
        ].content_matches(output)
    return isinstance(output, DataChange) and output.variable == t.action.variable


def replay_states(
    machine: RoleStateMachine,
    protocol: Protocol,
    records: list[JournalRecord] | tuple[JournalRecord, ...],
) -> frozenset[str]:
    """All states the machine can be in after replaying the records.

    A record is replayed by any transition its input event fires
    (:func:`enabled_for`) whose action matches its output.  The
    empty set means the machine cannot have produced this history.
    """
    here = {machine.initial_state}
    for record in records:
        nxt: set[str] = set()
        for state in here:
            for t in enabled_for(machine, protocol, state, record.input_event):
                if action_matches(protocol, t, record.output):
                    nxt.add(t.to_state)
        if not nxt:
            return frozenset()
        here = nxt
    return frozenset(here)


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
    """One enacted role: its protocol, machine and state, over one journal.

    Each input - a reception, or a data change that starts or resumes
    the role - fires one cascade (:meth:`fire`).  The driver never
    judges an incoming message - callers match it first
    (:meth:`enabled_for`) and hand the transitions that take it to
    :meth:`receive`, so nothing invalid is ever journaled and nothing is
    matched twice.
    """

    __slots__ = ("ref", "protocol", "machine", "journal", "content_overrides", "state")

    def __init__(
        self,
        ref: RoleRef,
        registry: ProtocolRegistry,
        journal: Journal,
        content_overrides: dict[str, dict] | None = None,
    ) -> None:
        self.ref = ref
        self.protocol = registry[ref.protocol]
        self.machine = self.protocol.roles[ref.role]
        self.journal = journal
        self.content_overrides = content_overrides or {}
        self.state = self.machine.initial_state

    @property
    def terminated(self) -> bool:
        return self.state in self.machine.terminal_states

    def _emit(self, schema: MessageSchema, tag: str | None) -> Message:
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
            reply_with=journal.tag() if tag is None else tag,
        )

    def enabled_for(self, event) -> list[Transition]:
        """Transitions from the current state that an input event fires."""
        return enabled_for(self.machine, self.protocol, self.state, event)

    def fire(
        self, enabled: list[Transition], event, rng: Random, tag: str | None = None
    ) -> tuple[Transition, tuple[JournalRecord, ...], Message | None]:
        """Fire one of ``enabled`` on ``event``, then the internal
        transitions it sets off, by the rule of this module, and move to
        the state reached.  Nothing is journaled.

        ``enabled`` holds the transitions found to take ``event`` in the
        current state, at least one.  A data change writes the value of
        the input: the content of a reception, the value of a change.  A
        message sent carries ``tag``, or a journal tag drawn as it is
        made when ``tag`` is None.  Returns the last transition fired,
        one record per transition fired, and the message sent, None when
        the cascade ends without a send.
        """
        value = event.content if isinstance(event, Message) else event.value
        records: list[JournalRecord] = []
        sent = None
        for _ in range(_CASCADE_LIMIT):
            t = pick(enabled, rng)
            kind = t.action.kind
            if kind == "send":
                schema = self.protocol.schemas[t.action.schema_id]  # type: ignore[index]
                sent = output = self._emit(schema, tag)
            elif kind == "data_change":
                output = DataChange(t.action.variable, value)
            else:
                output = None
            records.append(JournalRecord(t.method, event, output))
            if kind != "data_change":
                break  # a send or no action writes nothing
            event = output
            enabled = enabled_for_variable(self.machine, t.to_state, event.variable)
            if not enabled:
                break
        self.state = t.to_state
        return t, tuple(records), sent

    def receive(self, event, enabled: list[Transition], rng: Random) -> Message | None:
        """Journal an input event (a message received or a data change)
        and everything it sets off; ``enabled`` holds the transitions
        found to take it in the current state.  Returns the message sent,
        if any."""
        _, records, sent = self.fire(enabled, event, rng)
        self.journal.records.extend(records)
        return sent

    def resume(self, event, rng: Random) -> Message | None:
        """Fire an input event nobody matched yet: the data change that
        starts an initiator's role, or the input a recovery re-fires.
        Nothing fires when no transition of the current state takes it."""
        enabled = self.enabled_for(event)
        return self.receive(event, enabled, rng) if enabled else None

    def replay(self) -> None:
        """Rebuild the state from the journal as it stands: the least by
        name of the states :func:`replay_states` finds, the initial state
        when the machine cannot have produced the journal."""
        ends = replay_states(self.machine, self.protocol, self.journal.records)
        self.state = min(ends) if ends else self.machine.initial_state
