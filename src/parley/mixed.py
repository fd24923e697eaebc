"""Parallel instantiation of candidate roles behind a control zone.

Instead of betting on one role and swapping it on failure, the serving
agent can instantiate every candidate at once.  All instances handle
the same incoming messages; the replies they generate are buffered in
a control zone, exactly one reply is sent on, and the roles whose
replies matched it stay active while the others are parked.  The
counterpart never learns any of this: it sees one message per step,
as if a single role were running.

When the sent message turns out wrong, recovery is local bookkeeping:
the roles that produced it are stopped, an alternate reply from the
same step can replace the failed one outright, and when the step's
candidates are used up the most recently parked roles are woken and
the shared journal is cut back for them by the rewind rule of
:mod:`individual`.
"""

from __future__ import annotations

from random import Random
from typing import Callable, NamedTuple

from .errors import NoViableRoleError
from .individual import rewind
from .journal import Journal, MessageEmission, MessageReception
from .machine import (
    WRONG_STRUCTURE,
    PendingRecord,
    cascade,
    enabled_for,
    pick,
    rejection_kind,
    replay_state,
    weak_schema_ids,
)
from .model import Message, MessageSchema, Protocol, ProtocolRegistry, RoleRef, Transition
from .patterns import fill_pattern

ACTIVE = "active"
DEACTIVATED = "deactivated"
STOPPED = "stopped"


class RoleInstance:
    """One candidate role running (or parked) inside the zone."""

    __slots__ = ("ref", "state", "activation", "stamp", "last_message")

    def __init__(
        self, ref: RoleRef, state: str, activation: str = ACTIVE, stamp: int = 0
    ) -> None:
        self.ref = ref
        self.state = state
        self.activation = activation
        self.stamp = stamp  # set when deactivated; higher = more recent
        self.last_message: Message | None = None  # reply generated this step


class OutboxEntry(NamedTuple):
    """A candidate reply plus the records that would justify it, kept
    until its step's reply is picked."""

    ref: RoleRef
    message: Message
    schema_id: str
    records: tuple[PendingRecord, ...]


class ControlZone:
    """Shared state of one mixed-mode conversation on the serving side."""

    __slots__ = (
        "owner", "counterpart", "journal", "tag",
        "instances", "outbox", "last_sent", "stamp_counter",
    )

    def __init__(
        self, owner: str, counterpart: str, journal: Journal, tag: Callable[[], str]
    ) -> None:
        self.owner = owner
        self.counterpart = counterpart
        self.journal = journal
        self.tag = tag
        self.instances: dict[RoleRef, RoleInstance] = {}
        self.outbox: list[OutboxEntry] = []
        #: the entry of the last message sent, None before the first
        self.last_sent: OutboxEntry | None = None
        self.stamp_counter = 0

    def active(self) -> list[RoleInstance]:
        return [
            self.instances[r]
            for r in sorted(self.instances)
            if self.instances[r].activation == ACTIVE
        ]

    def deactivated(self) -> list[RoleInstance]:
        return [
            self.instances[r]
            for r in sorted(self.instances)
            if self.instances[r].activation == DEACTIVATED
        ]


def same_signature(a: Message, b: Message) -> bool:
    """Structure and content both equal - the activation criterion.

    Equal content has an equal shape, so the content comparison covers
    the structure of the payload.
    """
    return (
        a.performative == b.performative
        and a.language == b.language
        and a.ontology == b.ontology
        and a.content == b.content
    )


def _stop(instance: RoleInstance) -> None:
    """Stop an instance for good, reply and all."""
    instance.activation = STOPPED
    instance.last_message = None


def stop_active(cz: ControlZone) -> None:
    """Stop every active instance (stopping is final)."""
    for instance in cz.active():
        _stop(instance)


def _park(cz: ControlZone, instances: list[RoleInstance]) -> None:
    """Park ``instances`` as one freshly stamped batch."""
    cz.stamp_counter += 1
    for instance in instances:
        instance.activation = DEACTIVATED
        instance.stamp = cz.stamp_counter


# ---------------------------------------------------------------------------
# Generation: one instance handles one input event
# ---------------------------------------------------------------------------


def _step(
    cz: ControlZone,
    instance: RoleInstance,
    protocol: Protocol,
    enabled: list[Transition],
    event,
    tag: str,
    rng: Random,
) -> bool:
    """Fire ``event`` in the instance, by :func:`machine.cascade`.  A
    reply, tagged with the step's one ``tag``, goes to the outbox with
    the records that justify it; returns whether one came out."""

    def emit(schema: MessageSchema) -> Message:
        content = fill_pattern(schema.content_pattern)
        route = cz.owner, cz.counterpart, cz.journal.conversation_id
        return Message(schema.performative, content, schema.language, schema.ontology, *route, tag)

    last, records, sent = cascade(
        protocol, protocol.roles[instance.ref.role], enabled, event, emit, rng
    )
    instance.state = last.to_state
    instance.last_message = sent
    if sent is None:
        return False
    cz.outbox.append(OutboxEntry(instance.ref, sent, last.action.schema_id, records))
    return True


# ---------------------------------------------------------------------------
# Zone lifecycle
# ---------------------------------------------------------------------------


def instantiate_all(
    takers: dict[RoleRef, list[Transition]],
    registry: ProtocolRegistry,
    m0: Message,
    tag: Callable[[], str],
    rng: Random,
) -> ControlZone:
    """Spin up every role that takes the opening message.

    ``takers`` maps each such role to its transitions that take m0, as
    :func:`receiving_roles` matched them.  Each instance handles m0 and
    deposits its reply in the outbox; a role with no answer to m0 is
    stopped on the spot.  All survivors are then parked as one batch,
    waiting for the reply selection to wake the winners.
    """
    cz = ControlZone(
        owner=m0.receiver,
        counterpart=m0.sender,
        journal=Journal(conversation_id=m0.conversation_id),
        tag=tag,
    )
    tag_value = cz.tag()
    reception = MessageReception(m0)
    for ref in sorted(takers):
        protocol = registry[ref.protocol]
        instance = RoleInstance(ref=ref, state=protocol.roles[ref.role].initial_state)
        cz.instances[ref] = instance
        if not _step(cz, instance, protocol, takers[ref], reception, tag_value, rng):
            _stop(instance)
    _park(cz, cz.active())
    return cz


def feed(cz: ControlZone, registry: ProtocolRegistry, event, rng: Random) -> bool:
    """Feed one input event to every active instance: the reception of
    an incoming message, or the input a reactivation re-fires.

    When at least one instance takes it, those instances generate this
    step's candidate replies (the previous step's leftover alternates
    are dropped first), any active instance the event just proved
    wrong - or, after a reactivation, woke in vain - is stopped, and
    True comes back.  When nobody takes it, returns False and touches
    nothing.
    """
    fired = []
    for instance in cz.active():
        protocol = registry[instance.ref.protocol]
        machine = protocol.roles[instance.ref.role]
        fired.append((instance, protocol, enabled_for(machine, protocol, instance.state, event)))
    if not any(enabled for _, _, enabled in fired):
        return False
    cz.outbox.clear()
    tag_value = cz.tag()
    for instance, protocol, enabled in fired:
        if enabled:
            _step(cz, instance, protocol, enabled, event, tag_value, rng)
        else:
            _stop(instance)
    return True


def handle_incoming(
    cz: ControlZone, registry: ProtocolRegistry, msg: Message, rng: Random
) -> str | None:
    """:func:`feed` an incoming message: None when an active instance
    takes it, else the error kind, with nothing touched."""
    if feed(cz, registry, MessageReception(msg), rng):
        return None
    placed = []
    for instance in cz.active():
        protocol = registry[instance.ref.protocol]
        placed.append((protocol.roles[instance.ref.role], protocol, instance.state))
    return rejection_kind(placed, msg)


def _entry_is_weak(entry: OutboxEntry, registry: ProtocolRegistry) -> bool:
    machine = registry[entry.ref.protocol].roles[entry.ref.role]
    return entry.schema_id in weak_schema_ids(machine)


def _draw(entries: list[OutboxEntry], registry: ProtocolRegistry, rng: Random) -> OutboxEntry:
    """The reply-selection principle: prefer messages that keep the
    interaction alive, draw by seed within the preferred batch."""
    sturdy = [e for e in entries if not _entry_is_weak(e, registry)]
    pool = sturdy or entries
    return pick(pool, rng)


def _send(cz: ControlZone, chosen: OutboxEntry) -> Message:
    """Send ``chosen``: the instances that generated its signature wake
    (or stay awake) and leave the outbox, the other active instances are
    parked as one batch, and its records are journaled."""
    matching = [e for e in cz.outbox if same_signature(chosen.message, e.message)]
    matching_refs = {e.ref for e in matching}
    parked = [inst for inst in cz.active() if inst.ref not in matching_refs]
    if parked:
        _park(cz, parked)
    for entry in matching:
        instance = cz.instances[entry.ref]
        instance.activation = ACTIVE
        instance.last_message = chosen.message
        cz.outbox.remove(entry)
    for record in chosen.records:
        cz.journal.append(record.method, record.input_event, record.output_events)
    cz.last_sent = chosen
    return chosen.message


def select_outgoing(cz: ControlZone, registry: ProtocolRegistry, rng: Random) -> Message:
    """Pick this step's reply and :func:`_send` it.

    Identical candidates short-circuit: everyone stays active and no
    draw happens.  The losing candidates stay in the outbox - they are
    the alternates error handling may fall back on.
    """
    if not cz.outbox:
        raise ValueError("nothing to select: the outbox is empty")
    first = cz.outbox[0]
    if all(same_signature(first.message, e.message) for e in cz.outbox[1:]):
        return _send(cz, first)
    return _send(cz, _draw(cz.outbox, registry, rng))


# ---------------------------------------------------------------------------
# Error handling
# ---------------------------------------------------------------------------


def _retag(cz: ControlZone, entry: OutboxEntry) -> OutboxEntry:
    """A replacement goes out as a fresh send: new reply tag, and the
    pending records updated to emit the retagged message."""
    message = entry.message._replace(reply_with=cz.tag())
    records = tuple(
        PendingRecord(
            rec.method,
            rec.input_event,
            tuple(
                MessageEmission(message) if isinstance(ev, MessageEmission) else ev
                for ev in rec.output_events
            ),
        )
        for rec in entry.records
    )
    return OutboxEntry(entry.ref, message, entry.schema_id, records)


def handle_error_mixed(
    cz: ControlZone, registry: ProtocolRegistry, kind: str, rng: Random
) -> Message | None:
    """React to the counterpart rejecting the last sent message.

    The roles behind it are stopped.  A structure complaint voids every
    same-structure alternate; a content complaint voids the same
    content pattern and restricts the replacement to the same structure
    under a different pattern.  The surviving alternates go through the
    usual selection; the winner replaces the failed message in the
    journal and is returned for sending.  None means this step has no
    substitute and the caller should wake parked roles instead.
    """
    failed = cz.last_sent
    if failed is None:
        raise ValueError("no sent message to recover from")
    stop_active(cz)
    failed_pattern = registry[failed.ref.protocol].schema(failed.schema_id).content_pattern
    if kind == WRONG_STRUCTURE:
        doomed = [
            e
            for e in cz.outbox
            if e.message.structure_key() == failed.message.structure_key()
        ]
    else:
        doomed = [
            e
            for e in cz.outbox
            if registry[e.ref.protocol].schema(e.schema_id).content_pattern == failed_pattern
        ]
    for entry in doomed:
        cz.outbox.remove(entry)
        _stop(cz.instances[entry.ref])
    if kind == WRONG_STRUCTURE:
        eligible = list(cz.outbox)
    else:
        eligible = [
            e
            for e in cz.outbox
            if e.message.structure_key() == failed.message.structure_key()
        ]
    if not eligible:
        return None
    chosen = _retag(cz, _draw(eligible, registry, rng))
    cz.journal.keep_first(len(cz.journal) - len(failed.records))
    return _send(cz, chosen)  # nothing is active to park


# ---------------------------------------------------------------------------
# Reactivation
# ---------------------------------------------------------------------------


class ReactivationPlan(NamedTuple):
    """What waking the most recently parked roles entails."""

    refs: tuple[RoleRef, ...]
    counterpart_point: int
    own_point: int
    refire: object  # input event to feed the woken instances
    weak_guard: bool  # every possible next reply would end the interaction
    restart: bool  # the shared journal gave nothing to keep


def _next_send_schemas(machine, state: str) -> frozenset[str]:
    return frozenset(
        t.action.schema_id
        for t in machine.transitions_from(state)
        if t.action.kind == "send"
    )


def reactivate(
    cz: ControlZone,
    registry: ProtocolRegistry,
    location: int,
    offending: Message | None,
) -> ReactivationPlan:
    """Wake every instance sharing the highest parking stamp.

    The shared journal is rewound (:func:`individual.rewind`) for the
    woken roles, and the instances replay the kept prefix.  The returned
    plan carries the input to re-fire and how far the counterpart must
    roll back.
    """
    pool = cz.deactivated()
    if not pool:
        raise NoViableRoleError("every parked role is used up")
    top = max(instance.stamp for instance in pool)
    cohort = [instance for instance in pool if instance.stamp == top]
    counterpart_point, own_point, refire = rewind(
        cz.journal,
        [registry[i.ref.protocol].roles[i.ref.role] for i in cohort],
        location,
        offending,
    )
    weak_guard = True
    any_send = False
    for instance in cohort:
        protocol = registry[instance.ref.protocol]
        machine = protocol.roles[instance.ref.role]
        instance.activation = ACTIVE
        instance.last_message = None
        instance.state = (
            replay_state(machine, protocol, cz.journal.records) or machine.initial_state
        )
        sends = _next_send_schemas(machine, instance.state)
        if sends:
            any_send = True
            if sends - weak_schema_ids(machine):
                weak_guard = False
    return ReactivationPlan(
        refs=tuple(instance.ref for instance in cohort),
        counterpart_point=counterpart_point,
        own_point=own_point,
        refire=refire,
        weak_guard=weak_guard and any_send,
        restart=own_point == 1,
    )
