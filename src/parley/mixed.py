"""Parallel instantiation of candidate roles behind a control zone.

Instead of betting on one role and swapping it on failure, the serving
agent can instantiate every candidate at once.  All instances handle
the same incoming messages; the replies they generate are buffered in
a control zone, exactly one reply is sent on, and the roles whose
replies matched it stay active while the others are parked.  The
counterpart never learns any of this: it sees one message per step,
as if a single role were running.

The zone's one journal is the serving side of the conversation: its
route addresses every reply, it tags each step's reply once, and it
records the cascade (:meth:`machine.MachineDriver.fire`) behind every
reply sent.  Each instance is a driver over that journal, so it fires,
matches and replays as a lone role does.

When the sent message turns out wrong, recovery is local bookkeeping:
the roles that produced it are stopped, an alternate reply from the
same step can replace the failed one outright, and when the step's
candidates are used up the most recently parked roles are woken and
the shared journal is cut back for them by the rewind rule of
:mod:`individual`.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from .errors import NoViableRoleError
from .individual import rewind
from .journal import Journal, JournalRecord
from .machine import WRONG_STRUCTURE, MachineDriver, pick, rejection_kind, weak_schema_ids
from .model import Message, ProtocolRegistry, RoleRef, Transition

ACTIVE = "active"
DEACTIVATED = "deactivated"
STOPPED = "stopped"


class RoleInstance(MachineDriver):
    """One candidate role running (or parked) inside the zone: a driver
    over the zone's journal; it starts in the initial state."""

    __slots__ = ("activation", "stamp", "last_message")

    def __init__(self, ref: RoleRef, registry: ProtocolRegistry, journal: Journal) -> None:
        super().__init__(ref, registry, journal)
        self.activation = ACTIVE
        self.stamp = 0  # set when deactivated; higher = more recent
        self.last_message: Message | None = None  # reply generated this step


class OutboxEntry(NamedTuple):
    """A candidate reply plus the records that would justify it, kept
    until its step's reply is picked."""

    ref: RoleRef
    message: Message
    schema_id: str
    records: tuple[JournalRecord, ...]


class ControlZone:
    """Shared state of one mixed-mode conversation on the serving side."""

    __slots__ = ("journal", "instances", "outbox", "last_sent", "stamp_counter")

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        #: role -> its instance, filled once, in role order, by
        #: :func:`instantiate_all`
        self.instances: dict[RoleRef, RoleInstance] = {}
        self.outbox: list[OutboxEntry] = []
        #: the entry of the last message sent, None before the first
        self.last_sent: OutboxEntry | None = None
        self.stamp_counter = 0

    def with_activation(self, activation: str) -> list[RoleInstance]:
        """The instances whose activation is ``activation``, in role order."""
        return [i for i in self.instances.values() if i.activation == activation]


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
    for instance in cz.with_activation(ACTIVE):
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
    enabled: list[Transition],
    event,
    tag: str,
    rng: Random,
) -> bool:
    """Fire ``event`` in the instance.  A reply, tagged with the step's
    one ``tag``, goes to the outbox with the records that justify it;
    returns whether one came out."""
    last, records, sent = instance.fire(enabled, event, rng, tag)
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
    journal: Journal,
    m0: Message,
    rng: Random,
) -> ControlZone:
    """Spin up every role that takes the opening message.

    ``takers`` maps each such role to its transitions that take m0, as
    :func:`receiving_roles` matched them.  ``journal`` is the serving
    side of m0's conversation, empty, and becomes the zone's.  Each
    instance handles m0 and deposits its reply in the outbox; a role
    with no answer to m0 is stopped on the spot.  All survivors are
    then parked as one batch, waiting for the reply selection to wake
    the winners.
    """
    cz = ControlZone(journal)
    tag = cz.journal.tag()
    for ref in sorted(takers):
        instance = cz.instances[ref] = RoleInstance(ref, registry, cz.journal)
        if not _step(cz, instance, takers[ref], m0, tag, rng):
            _stop(instance)
    _park(cz, cz.with_activation(ACTIVE))
    return cz


def feed(cz: ControlZone, event, rng: Random) -> bool:
    """Feed one input event to every active instance: the reception of
    an incoming message, or the input a reactivation re-fires.

    When at least one instance takes it, those instances generate this
    step's candidate replies (the previous step's leftover alternates
    are dropped first), any active instance the event just proved
    wrong - or, after a reactivation, woke in vain - is stopped, and
    True comes back.  When nobody takes it, returns False and touches
    nothing.
    """
    fired = [(instance, instance.enabled_for(event)) for instance in cz.with_activation(ACTIVE)]
    if not any(enabled for _, enabled in fired):
        return False
    cz.outbox.clear()
    tag = cz.journal.tag()
    for instance, enabled in fired:
        if enabled:
            _step(cz, instance, enabled, event, tag, rng)
        else:
            _stop(instance)
    return True


def handle_incoming(cz: ControlZone, msg: Message, rng: Random) -> str | None:
    """:func:`feed` an incoming message: None when an active instance
    takes it, else the error kind, with nothing touched."""
    if feed(cz, msg, rng):
        return None
    return rejection_kind(cz.with_activation(ACTIVE), msg)


def _draw(cz: ControlZone, entries: list[OutboxEntry], rng: Random) -> OutboxEntry:
    """The reply-selection principle: prefer messages that keep the
    interaction alive, draw by seed within the preferred batch."""
    sturdy = [
        e for e in entries
        if e.schema_id not in weak_schema_ids(cz.instances[e.ref].machine)
    ]
    return pick(sturdy or entries, rng)


def _send(cz: ControlZone, chosen: OutboxEntry) -> Message:
    """Send ``chosen``: the instances that generated its signature wake
    (or stay awake) and leave the outbox, the other active instances are
    parked as one batch, and its records are journaled."""
    matching = [e for e in cz.outbox if same_signature(chosen.message, e.message)]
    matching_refs = {e.ref for e in matching}
    parked = [inst for inst in cz.with_activation(ACTIVE) if inst.ref not in matching_refs]
    if parked:
        _park(cz, parked)
    for entry in matching:
        instance = cz.instances[entry.ref]
        instance.activation = ACTIVE
        instance.last_message = chosen.message
        cz.outbox.remove(entry)
    cz.journal.records.extend(chosen.records)
    cz.last_sent = chosen
    return chosen.message


def select_outgoing(cz: ControlZone, rng: Random) -> Message:
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
    return _send(cz, _draw(cz, cz.outbox, rng))


# ---------------------------------------------------------------------------
# Error handling
# ---------------------------------------------------------------------------


def _retag(cz: ControlZone, entry: OutboxEntry) -> OutboxEntry:
    """A replacement goes out as a fresh send: new reply tag, and the
    pending records updated to emit the retagged message.  A send ends
    the cascade, so the last record is the one that emits it."""
    message = entry.message._replace(reply_with=cz.journal.tag())
    *cascade, send = entry.records
    return entry._replace(message=message, records=(*cascade, send._replace(output=message)))


def handle_error_mixed(cz: ControlZone, kind: str, rng: Random) -> Message | None:
    """React to the counterpart rejecting the last sent message.

    The roles behind it are stopped.  A structure complaint voids every
    alternate of the failed reply's structure; a content complaint voids
    the same content pattern and restricts the replacement to the same
    structure under a different pattern.  Every reply is its schema's
    fill, so the failed schema's structure test tells the alternates of
    the same structure.  The surviving alternates go through the
    usual selection; the winner replaces the failed message in the
    journal and is returned for sending.  None means this step has no
    substitute and the caller should wake parked roles instead.
    """
    failed = cz.last_sent
    if failed is None:
        raise ValueError("no sent message to recover from")
    stop_active(cz)
    failed_schema = cz.instances[failed.ref].protocol.schemas[failed.schema_id]
    if kind == WRONG_STRUCTURE:
        doomed = [e for e in cz.outbox if failed_schema.structure_matches(e.message)]
    else:
        doomed = [
            e
            for e in cz.outbox
            if cz.instances[e.ref].protocol.schemas[e.schema_id].content_pattern
            == failed_schema.content_pattern
        ]
    for entry in doomed:
        cz.outbox.remove(entry)
        _stop(cz.instances[entry.ref])
    if kind == WRONG_STRUCTURE:
        eligible = list(cz.outbox)
    else:
        eligible = [e for e in cz.outbox if failed_schema.structure_matches(e.message)]
    if not eligible:
        return None
    chosen = _retag(cz, _draw(cz, eligible, rng))
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


def reactivate(cz: ControlZone, location: int, offending: Message | None) -> ReactivationPlan:
    """Wake every instance sharing the highest parking stamp.

    The shared journal is rewound (:func:`individual.rewind`) for the
    woken roles, and the instances replay the kept prefix.  The returned
    plan carries the input to re-fire and how far the counterpart must
    roll back.
    """
    pool = cz.with_activation(DEACTIVATED)
    if not pool:
        raise NoViableRoleError("every parked role is used up")
    top = max(instance.stamp for instance in pool)
    cohort = [instance for instance in pool if instance.stamp == top]
    counterpart_point, own_point, refire = rewind(
        cz.journal, [i.machine for i in cohort], location, offending
    )
    weak_guard = True
    any_send = False
    for instance in cohort:
        machine = instance.machine
        instance.activation = ACTIVE
        instance.last_message = None
        instance.replay()
        sends = {
            t.action.schema_id
            for t in machine.transitions_from(instance.state)
            if t.action.kind == "send"
        }
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
