"""Agents: the behaviors that drive selection and enactment on the bus.

Three families live here.  The joint-selection pair negotiates which
protocol and roles to use before anything domain-level happens.  The
individual-selection agents skip the negotiation: the opening domain
message itself makes the responder pick roles, either one at a time
(sequential, with purge-and-replace recovery) or all at once behind a
control zone (mixed).  Every role they enact is a
:class:`machine.MachineDriver`, stepped by its one transition cascade:
the individual initiator and the sequential responder hold one each,
and every instance of a mixed responder's :mod:`mixed` zone is one.
No agent holds an interaction model: the wiring hands a joint
initiator its task's matched protocols, an individual initiator its
role, a participant its answer table and a responder its roles.

The two responders share one base class.  It keeps a thread per
conversation, holding that conversation's one journal, drops what is
not for a responder, runs the termination handshake and rejects an
opening that no role takes; each responder adds only how it opens a
thread, takes a later domain message and recovers from an error notice.
Every agent traces the end of its part of a conversation through
``_note_termination``, each family writes
the envelope of its other notes in one place, and each initiator sets
its task's (outcome, detail) once, where it decides it.
"""

from __future__ import annotations

from .errors import ParseError, ProtocolViolationError
from .individual import (
    INITIATOR_DETECTED,
    PARTICIPANT_DETECTED,
    InteractionError,
    locate_emission,
    purge_collection,
    receiving_roles,
    rewind,
    select_replacement_role,
    truncate_counterpart,
)
from .journal import DataChange, Journal
from .joint import (
    PROTOCOL_ORIENTED,
    CandidateMatrix,
    assign_roles_1_n,
    build_candidate_matrix,
    next_vector,
    offered_roles,
    select_largest_set,
)
from .machine import (
    WRONG_STRUCTURE,
    MachineDriver,
    pick,
    rejection_kind,
)
from .mixed import (
    ControlZone,
    handle_error_mixed,
    feed,
    handle_incoming,
    instantiate_all,
    reactivate,
    select_outgoing,
    stop_active,
)
from .model import (
    CALL_FOR_COLLABORATION,
    ERROR_NOTIFY,
    NOTIFY_ASSIGNMENT,
    READY_TO_SELECT,
    RECOVER_AT,
    SELECTION_PERFORMATIVES,
    STOP_SELECTION,
    TERMINATION_NOTICE,
    TERMINATION_WARNING,
    UNABLE_TO_SELECT,
    Message,
    Protocol,
    ProtocolCategory,
    ProtocolRegistry,
    RoleRef,
    TaskDescription,
    classify_protocol,
)
from .runtime import WAKE, AgentBase, SimRuntime

#: termination-warning reasons that end the interaction for good
FATAL_WARNINGS = frozenset({"exhausted", "no-viable-role"})


def _message(
    performative: str, content: dict, sender: str, receiver: str, conversation: str
) -> Message:
    """A selection or control message, untagged."""
    return Message(performative, content, "kv", "core", sender, receiver, conversation)


def _note_termination(rt: SimRuntime, conversation: str, agent: str, status: str, **extra) -> None:
    """Trace that ``agent`` is done with ``conversation``."""
    rt.note(
        "termination",
        {"conversation": conversation, "agent": agent, "status": status, **extra},
    )


def _schedule(rt: SimRuntime, msg: Message | None) -> None:
    """Put on the bus the message a driver step sent, if it sent one."""
    if msg is not None:
        rt.schedule_send(msg)


def _error_notice(kind: str, msg: Message, detected_by: str) -> dict:
    """The content of an error notice flagging ``msg``."""
    return {"kind": kind, "tag": msg.reply_with or "", "detected-by": detected_by}


# ---------------------------------------------------------------------------
# Joint selection: initiator
# ---------------------------------------------------------------------------


class _Round:
    """One call for collaboration within a vector: to one agent
    (pairwise) or to the whole vector at once (broadcast)."""

    __slots__ = ("number", "protocol", "agents", "broadcast", "replies", "refused")

    def __init__(
        self,
        number: int,
        protocol: str | None = None,
        agents: frozenset[str] = frozenset(),
        broadcast: bool = False,
    ) -> None:
        self.number = number
        self.protocol = protocol
        #: the agents called, a set so that admitting a reply is one lookup
        self.agents = agents
        self.broadcast = broadcast
        #: agent -> the roles its ready-to-select offered, empty for an
        #: offer of no role (pairwise only: in a broadcast that is no answer)
        self.replies: dict[str, tuple[RoleRef, ...]] = {}
        #: the agents that answered unable-to-select or a malformed offer
        self.refused: set[str] = set()


class JointInitiator(AgentBase):
    """Runs the selection meta protocol for one task.

    Vectors come from the candidate matrix, least sparse first, and
    each yields (protocol, agents) cells: a row is one cell, a column
    one cell per protocol.  A one-to-one protocol is negotiated agent
    by agent: the first acceptable role wins.  Many-instance and
    multi-role protocols broadcast the call to the agents of the cell
    and arbitrate the replies (largest backing set, or an allocation
    along the father forest), in either orientation.  Either way a
    round closes once everyone called answered or the reply deadline
    hit.

    The work per reply does not grow with the fan-out: a reply is
    admitted by one set lookup, and repliers with equal models send one
    shared ready-to-select content, which is read once.
    """

    def __init__(
        self,
        name: str,
        task: TaskDescription,
        candidates: list[tuple[Protocol, str]],
        registry: ProtocolRegistry,
        mode: str,
        reply_deadline: int,
    ) -> None:
        super().__init__(name)
        self.task = task
        self.candidates = candidates
        self.registry = registry
        self.mode = mode
        self.reply_deadline = reply_deadline
        self.conversation = f"{task.task_id}!select"
        self.matrix: CandidateMatrix | None = None
        self.explored: set[str] = set()
        #: (summary outcome, detail) once the selection is decided
        self.outcome: tuple[str, dict] | None = None
        self.round = _Round(number=0)
        #: the calls of the vector still to make: (protocol, agents, broadcast)
        self.pending: list[tuple[str, tuple[str, ...], bool]] = []
        #: id of each well-formed ready-to-select content read -> that
        #: content, held so that its id is not reused, and its offer
        self.offers_read: dict[int, tuple[dict, tuple[RoleRef, ...]]] = {}

    # -- plumbing ----------------------------------------------------------

    def _send(self, rt: SimRuntime, to: str, performative: str, content: dict) -> None:
        rt.schedule_send(
            _message(performative, content, self.name, to, self.conversation)
        )

    def _note(self, rt: SimRuntime, step: str, **fields) -> None:
        rt.note("selection", {"task": self.task.task_id, "step": step, **fields})

    def _read_offer(self, content) -> tuple[RoleRef, ...]:
        """The roles a ready-to-select's content offers, in its order;
        ValueError or ParseError unless they are a list of distinct
        ``protocol:role`` strings.  A content is never changed once sent,
        so each well-formed content object is read once."""
        read = self.offers_read.get(id(content))
        if read is not None:
            return read[1]
        roles = content.get("roles", []) if isinstance(content, dict) else None
        if not isinstance(roles, list) or not all(isinstance(r, str) for r in roles):
            raise ValueError(f"roles must be a list of 'protocol:role' strings, not {roles!r}")
        offer = tuple(map(RoleRef.parse, roles))
        if len(set(offer)) != len(offer):
            raise ValueError("duplicate roles in ready-to-select payload")
        self.offers_read[id(content)] = (content, offer)
        return offer

    # -- lifecycle ---------------------------------------------------------

    def on_start(self, rt: SimRuntime) -> None:
        self.matrix = build_candidate_matrix(self.task, self.candidates)
        self._note(
            rt,
            "matrix",
            protocols=list(self.matrix.protocols),
            agents=list(self.matrix.agents),
            # the rows come in protocol order, each in agent order: sorted cells
            cells=[[p, a] for p, row in self.matrix.rows.items() for a in row],
        )
        self._advance_vector(rt)

    def _advance_vector(self, rt: SimRuntime) -> None:
        vector = next_vector(self.matrix, self.mode, self.explored)
        if vector is None:
            self.outcome = ("failure", {"reason": "exhausted"})
            self._note(rt, "failed", reason="exhausted")
            _note_termination(rt, self.conversation, self.name, "failed")
            return
        self.explored.add(vector)
        self._note(rt, "explore", vector=vector)
        if self.mode == PROTOCOL_ORIENTED:
            cells = [(vector, self.matrix.rows[vector])]
        else:
            cells = [(p, (vector,)) for p in self.matrix.columns[vector]]
        self.pending = []
        for protocol_id, agents in cells:
            if classify_protocol(self.registry[protocol_id]) is ProtocolCategory.ONE_ONE:
                self.pending += [(protocol_id, (agent,), False) for agent in agents]
            else:
                self.pending.append((protocol_id, agents, True))
        self._call_next(rt)

    def _call_next(self, rt: SimRuntime) -> None:
        """Open a round for the next pending call, or explore the next vector."""
        if not self.pending:
            self._advance_vector(rt)
            return
        protocol_id, agents, broadcast = self.pending.pop(0)
        number = self.round.number + 1
        self.round = _Round(number, protocol_id, frozenset(agents), broadcast)
        # one content for the whole call: message contents are never changed
        call = {"protocol": protocol_id, "task": self.task.task_id}
        for agent in agents:
            self._send(rt, agent, CALL_FOR_COLLABORATION, call)
        rt.wake_self(self.name, self.conversation, {"round": number}, self.reply_deadline)

    def _close(self, rt: SimRuntime) -> None:
        """Arbitrate the open round, notify the agents picked, stop the
        other repliers (a silent pairwise agent too, since it may answer
        yet), then settle the task or make the next call."""
        round_ = self.round
        # drop the replies; a broadcast's close uses up a number (the wakes carry them)
        self.round = _Round(round_.number + round_.broadcast)
        usable = self.matrix.roles
        notices: dict[str, dict] = {}
        if not round_.broadcast:
            (agent,) = round_.agents
            ref = next((r for r in round_.replies.get(agent, ()) if r in usable), None)
            if ref is not None:
                notices[agent] = {"role": str(ref)}
                kind, protocol_id = "one-one", ref.protocol
                fields = {"agent": agent, "protocol": ref.protocol, "role": str(ref)}
            stopped = round_.agents - round_.refused
        else:
            replies = round_.replies
            protocol = self.registry[round_.protocol]
            if classify_protocol(protocol) is ProtocolCategory.ONE_ONE_N:
                # every replier still counts, backing only the usable roles
                backed = {a: [r for r in roles if r in usable] for a, roles in replies.items()}
                picked = select_largest_set(backed, self.matrix.protocols)
                if picked is not None:
                    role, agents = picked
                    notice = {"role": str(role)}
                    notices = dict.fromkeys(agents, notice)
                    kind, protocol_id = "largest-set", role.protocol
                    fields = {"role": str(role), "agents": sorted(agents)}
            else:
                allocation = assign_roles_1_n(replies, protocol, rt.rng)
                if allocation is not None:
                    assignment = {str(r): a for r, a in sorted(allocation.items())}
                    for label, agent in assignment.items():
                        notice = notices.setdefault(agent, {"role": label, "roles": []})
                        notice["roles"].append(label)
                    kind, protocol_id = "role-allocation", round_.protocol
                    fields = {"protocol": round_.protocol, "assignment": assignment}
            stopped = set(replies)
        for agent in sorted(notices):
            self._send(rt, agent, NOTIFY_ASSIGNMENT, notices[agent])
        stop: dict = {}
        for agent in sorted(stopped - notices.keys()):
            self._send(rt, agent, STOP_SELECTION, stop)
        if not notices:
            self._call_next(rt)
            return
        # the ``solved`` note and the summary detail carry the same fields
        self.outcome = ("selected", {"protocol": protocol_id, **fields})
        self._note(rt, "solved", outcome=kind, **fields)
        _note_termination(rt, self.conversation, self.name, "concluded")

    # -- message handling ----------------------------------------------------

    def on_message(self, rt: SimRuntime, msg: Message) -> None:
        performative, round_ = msg.performative, self.round
        if performative == WAKE:
            if self.outcome is None and msg.content.get("round") == round_.number:
                self._close(rt)  # the reply deadline
            return
        if self.outcome is not None or msg.sender not in round_.agents:
            if performative == READY_TO_SELECT:
                self._send(rt, msg.sender, STOP_SELECTION, {})  # a late offer
            return
        if performative == READY_TO_SELECT:
            try:
                offer = self._read_offer(msg.content)
            except (ValueError, ParseError) as exc:
                round_.refused.add(msg.sender)
                self._note(rt, "malformed-offer", agent=msg.sender, reason=str(exc))
            else:
                if not offer and round_.broadcast:
                    return  # offers nothing to arbitrate: no answer
                round_.replies[msg.sender] = offer
        elif performative == UNABLE_TO_SELECT:
            round_.refused.add(msg.sender)
        if len(round_.replies) + len(round_.refused) >= len(round_.agents):
            self._close(rt)


# ---------------------------------------------------------------------------
# Joint selection: participant
# ---------------------------------------------------------------------------


#: reason -> the one unable-to-select answer given for it: no role on
#: offer, and one content, since message contents are never changed
_UNABLE = {
    reason: ((), UNABLE_TO_SELECT, {"reason": reason})
    for reason in ("malformed-call", "unwilling", "no-role")
}


def answer_table(
    mine: tuple[RoleRef, ...],
    willing: bool,
    table: frozenset[tuple[RoleRef, RoleRef]],
    registry: ProtocolRegistry,
    contents: dict[tuple[RoleRef, ...], dict],
) -> dict[str, tuple[tuple[RoleRef, ...], str, dict]]:
    """Protocol id -> (roles offered, reply performative, reply content)
    for a call naming it, for every protocol of ``registry``, of an agent
    enacting the participant roles ``mine``.

    An unwilling agent refuses every call, and an agent with no role to
    offer refuses the call for it.  ``contents`` maps each offer to the
    one ready-to-select content listing it, and is shared by every
    participant of a runtime, whatever its model.
    """
    if not willing:
        return dict.fromkeys(registry, _UNABLE["unwilling"])
    answers = {}
    for protocol_id, roles in offered_roles(mine, table, registry).items():
        if not roles:
            answers[protocol_id] = _UNABLE["no-role"]
            continue
        ready = contents.get(roles)
        if ready is None:
            ready = contents[roles] = {"roles": [str(r) for r in roles]}
        answers[protocol_id] = roles, READY_TO_SELECT, ready
    return answers


class SelectionParticipant(AgentBase):
    """Answers calls for collaboration with the roles it can commit to.

    Each call is answered from ``answers``, an :func:`answer_table`
    built when the runtime is wired; a call naming no protocol of the
    table is malformed.  An assignment of a role that is not on offer is
    a protocol violation, and so is a reply performative sent to a
    participant; an accepted assignment and a stop both end the offer.
    """

    def __init__(
        self, name: str, answers: dict[str, tuple[tuple[RoleRef, ...], str, dict]]
    ) -> None:
        super().__init__(name)
        self.answers = answers
        #: conversation id -> the roles on offer, while an offer is pending
        self.pending: dict[str, tuple[RoleRef, ...]] = {}

    def on_message(self, rt: SimRuntime, msg: Message) -> None:
        performative, conversation = msg.performative, msg.conversation_id
        if performative == CALL_FOR_COLLABORATION:
            content = msg.content if isinstance(msg.content, dict) else {}
            protocol_id = content.get("protocol")
            answer = self.answers.get(protocol_id) if isinstance(protocol_id, str) else None
            roles, reply, reply_content = answer or _UNABLE["malformed-call"]
            if roles:
                self.pending[conversation] = roles
            rt.schedule_send(_message(reply, reply_content, self.name, msg.sender, conversation))
        elif performative == NOTIFY_ASSIGNMENT:
            offered = self.pending.get(conversation)
            if offered is None:
                raise ProtocolViolationError("assignment without a pending offer")
            ref = RoleRef.parse(msg.content.get("role", ""))
            if ref not in offered:
                raise ProtocolViolationError(f"assigned role {ref} was never offered")
            del self.pending[conversation]
            _note_termination(
                rt, conversation, self.name, "selected", role=msg.content["role"]
            )
        elif performative == STOP_SELECTION:
            self.pending.pop(conversation, None)
        elif performative in SELECTION_PERFORMATIVES:
            raise ProtocolViolationError(f"unexpected {performative} in selection thread")


# ---------------------------------------------------------------------------
# Individual selection: initiator
# ---------------------------------------------------------------------------


class IndividualInitiator(AgentBase):
    """Opens a domain interaction directly and polices the replies.

    Every reception is validated before it is journaled; a bad one is
    reported with an error notice and simply dropped.  The counterpart
    answers either with a substitute message (mixed mode) or with a
    recover-at point that tells this side how much of its own journal
    still stands.
    """

    def __init__(
        self,
        name: str,
        task: TaskDescription,
        ref: RoleRef,
        registry: ProtocolRegistry,
    ) -> None:
        super().__init__(name)
        self.task = task
        #: the initiator role of the first protocol matched to the task
        self.ref = ref
        self.registry = registry
        #: individual selection talks to the task's one identified participant
        participant = next(a for agents in task.participants.values() for a in agents)
        self.conversation = f"{task.task_id}/{participant}"
        self.journal = Journal(self.conversation, self.name, participant)
        #: (summary outcome, detail) once the task is over
        self.outcome: tuple[str, dict] | None = None
        self.awaiting_notice = False

    def on_start(self, rt: SimRuntime) -> None:
        self.driver = MachineDriver(self.ref, self.registry, self.journal, self.task.contents)
        _schedule(rt, self.driver.resume(DataChange("task", self.task.task_id), rt.rng))

    def _send(self, rt: SimRuntime, performative: str, content: dict) -> None:
        rt.schedule_send(
            _message(performative, content, self.name, self.journal.peer, self.conversation)
        )

    def _conclude(self, rt: SimRuntime, status: str, detail: dict, **extra) -> None:
        self.outcome = (status, detail)
        _note_termination(rt, self.conversation, self.name, status, **extra)

    def on_message(self, rt: SimRuntime, msg: Message) -> None:
        if self.outcome is not None:
            return
        performative = msg.performative
        if performative == ERROR_NOTIFY:
            # The counterpart flagged one of this side's messages; its
            # recover-at (or failure warning) follows, so just wait.
            return
        if performative == RECOVER_AT:
            point = int(msg.content.get("point", 1))
            truncate_counterpart(self.journal, point)
            self.driver.replay()
            return
        if performative == TERMINATION_WARNING:
            reason = msg.content.get("reason", "")
            if reason in FATAL_WARNINGS:
                self._conclude(rt, "failed", {}, reason=reason)
            return
        if performative == TERMINATION_NOTICE:
            if self.awaiting_notice:
                self.awaiting_notice = False
                detail = {"final_state": self.driver.state}
                self._conclude(rt, "concluded", detail, **detail)
            return
        enabled = self.driver.enabled_for(msg)
        if not enabled:
            verdict = rejection_kind((self.driver,), msg)
            self._send(rt, ERROR_NOTIFY, _error_notice(verdict, msg, INITIATOR_DETECTED))
            return
        _schedule(rt, self.driver.receive(msg, enabled, rt.rng))
        if self.driver.terminated and not self.awaiting_notice:
            self.awaiting_notice = True
            self._send(rt, TERMINATION_NOTICE, {"state": self.driver.state})


# ---------------------------------------------------------------------------
# Individual selection: what both responders share
# ---------------------------------------------------------------------------


class _Thread:
    """One conversation a responder serves."""

    __slots__ = ("journal", "opening", "closed")

    def __init__(self, journal: Journal) -> None:
        #: this side of the conversation: its route addresses every reply,
        #: and every role enacted in it records here
        self.journal = journal
        #: the opening message, once a role took it
        self.opening: Message | None = None
        self.closed = False


class _Responder(AgentBase):
    """The scaffolding of a responder that picks its roles individually.

    It keeps one thread per conversation, made with the conversation's
    one journal on this side.  Wakes, selection
    performatives, termination warnings and recover-at points are not
    for it and are dropped; a termination notice is acknowledged and
    closes the thread, and a closed thread ignores everything.  An
    opening that no enacted participant role takes is flagged with an
    error notice and fails the thread.  A subclass fills in three hooks:
    ``_open(rt, thread, msg, takers)`` gets an opening and maps each
    role that takes it to the transitions that do,
    ``_on_domain(rt, thread, msg)`` every later domain message, and
    ``_on_error_notice(rt, thread, msg)`` the initiator's error notices
    once the thread is open.
    """

    thread_type = _Thread

    def __init__(self, name: str, roles: tuple[RoleRef, ...], registry: ProtocolRegistry) -> None:
        super().__init__(name)
        #: the participant roles it enacts, in role order
        self.roles = roles
        self.registry = registry
        self.threads: dict[str, _Thread] = {}

    def _reply(self, rt, thread, performative, content) -> None:
        journal = thread.journal
        rt.schedule_send(
            _message(performative, content, self.name, journal.peer, journal.conversation_id)
        )

    def _note(self, rt: SimRuntime, event: str, thread: _Thread, **fields) -> None:
        rt.note(
            event, {"conversation": thread.journal.conversation_id, "agent": self.name, **fields}
        )

    def _fail(self, rt: SimRuntime, thread: _Thread, reason: str) -> None:
        self._reply(rt, thread, TERMINATION_WARNING, {"reason": reason})
        _note_termination(rt, thread.journal.conversation_id, self.name, "failed", reason=reason)
        thread.closed = True

    def _reject(self, rt: SimRuntime, thread: _Thread, msg: Message, kind: str) -> None:
        """Flag a reception this side cannot take."""
        self._reply(rt, thread, ERROR_NOTIFY, _error_notice(kind, msg, PARTICIPANT_DETECTED))

    def on_message(self, rt: SimRuntime, msg: Message) -> None:
        conversation = msg.conversation_id
        thread = self.threads.get(conversation)
        if thread is not None and thread.closed:
            return
        performative = msg.performative
        if performative == WAKE or performative in SELECTION_PERFORMATIVES:
            return
        if thread is None:
            journal = Journal(conversation, self.name, msg.sender)
            thread = self.threads[conversation] = self.thread_type(journal)
        if performative == ERROR_NOTIFY:
            if thread.opening is not None:
                self._on_error_notice(rt, thread, msg)
            return
        if performative == TERMINATION_NOTICE:
            self._reply(rt, thread, TERMINATION_NOTICE, {"state": "acknowledged"})
            _note_termination(rt, conversation, self.name, "concluded")
            thread.closed = True
            return
        if performative in (TERMINATION_WARNING, RECOVER_AT):
            return
        if thread.opening is not None:
            self._on_domain(rt, thread, msg)
            return
        takers = receiving_roles(self.roles, self.registry, msg)
        if not takers:
            # content or structure complaint, judged at every initial state
            fresh = [MachineDriver(ref, self.registry, thread.journal) for ref in self.roles]
            self._reject(rt, thread, msg, rejection_kind(fresh, msg))
            self._fail(rt, thread, "no-viable-role")
            return
        thread.opening = msg
        self._open(rt, thread, msg, takers)


# ---------------------------------------------------------------------------
# Individual selection: sequential responder
# ---------------------------------------------------------------------------


class _SequentialThread(_Thread):
    __slots__ = ("collection", "driver")

    def __init__(self, journal: Journal) -> None:
        super().__init__(journal)
        #: the roles that took the opening and are still available; the
        #: enacted role is out
        self.collection: set[RoleRef] = set()
        self.driver: MachineDriver | None = None


class SequentialResponder(_Responder):
    """Picks one candidate role per conversation and swaps it on error.

    The opening message fixes the collection (every enacted participant
    role that takes it in its initial state); a seeded draw activates
    one.  An error notice from the initiator triggers the purge rules,
    a replacement draw, the recovery-point computation, and a journal
    rewind on both sides; a reception nobody can take does the same
    from this side.
    """

    thread_type = _SequentialThread
    on_message = _Responder.on_message

    def _recover(self, rt: SimRuntime, thread: _SequentialThread, error: InteractionError) -> None:
        journal = thread.journal
        purged, kept = purge_collection(thread.collection, self.registry, journal.records, error)
        replacement = select_replacement_role(kept, self.registry, error, rt.rng)
        if replacement is None:
            self._fail(rt, thread, "exhausted")
            return
        thread.collection = kept.keys() - {replacement}
        thread.driver = MachineDriver(replacement, self.registry, journal)
        counterpart_point, own_point, refire = rewind(
            journal,
            [thread.driver.machine],
            error.location,
            error.offending if error.detected_by == PARTICIPANT_DETECTED else None,
        )
        thread.driver.replay()
        self._note(
            rt,
            "recovery",
            thread,
            action="replacement",
            kind=error.kind,
            purged=[str(r) for r in purged],
            role=str(replacement),
            points=[counterpart_point, own_point],
        )
        self._reply(rt, thread, RECOVER_AT, {"point": counterpart_point})
        _schedule(rt, thread.driver.resume(refire, rt.rng))

    def _open(self, rt, thread: _SequentialThread, msg: Message, takers) -> None:
        chosen = pick(list(takers), rt.rng)
        thread.collection = set(takers) - {chosen}
        thread.driver = MachineDriver(chosen, self.registry, thread.journal)
        self._note(
            rt,
            "selection",
            thread,
            step="role-instantiated",
            role=str(chosen),
            collection=[str(r) for r in sorted(thread.collection)],
        )
        _schedule(rt, thread.driver.receive(msg, takers[chosen], rt.rng))

    def _on_domain(self, rt, thread: _SequentialThread, msg: Message) -> None:
        enabled = thread.driver.enabled_for(msg)
        if enabled:
            _schedule(rt, thread.driver.receive(msg, enabled, rt.rng))
            return
        verdict = rejection_kind((thread.driver,), msg)
        location = len(thread.journal) + 1
        self._reject(rt, thread, msg, verdict)
        error = InteractionError(
            kind=verdict,
            location=location,
            offending=msg,
            detected_by=PARTICIPANT_DETECTED,
        )
        self._recover(rt, thread, error)

    def _on_error_notice(self, rt, thread: _SequentialThread, msg: Message) -> None:
        kind = msg.content.get("kind", WRONG_STRUCTURE)
        tag = msg.content.get("tag", "")
        records = thread.journal.records
        location = locate_emission(records, tag)
        if location == 0:
            return  # notice about a message this journal never sent
        error = InteractionError(
            kind=kind,
            location=location,
            offending=records[location - 1].output,
            detected_by=INITIATOR_DETECTED,
        )
        self._recover(rt, thread, error)


# ---------------------------------------------------------------------------
# Individual selection: mixed responder
# ---------------------------------------------------------------------------


class _MixedThread(_Thread):
    __slots__ = ("zone",)

    def __init__(self, journal: Journal) -> None:
        super().__init__(journal)
        self.zone: ControlZone | None = None


class MixedResponder(_Responder):
    """Runs every candidate role at once behind a control zone.

    The opening message instantiates the whole collection; one
    generated reply is selected per step and the rest stay parked as
    alternates.  Error notices first try a substitute from the current
    step's alternates, then wake the most recently parked cohort and
    rewind the shared journal to a point every woken role can retrace.
    """

    thread_type = _MixedThread
    on_message = _Responder.on_message

    def _send_selected(self, rt: SimRuntime, thread: _MixedThread) -> None:
        rt.schedule_send(select_outgoing(thread.zone, rt.rng))

    def _wake_parked(
        self,
        rt: SimRuntime,
        thread: _MixedThread,
        location: int,
        offending: Message | None,
    ) -> None:
        """Reactivate cohorts until one replies to the re-fired input.

        A pass fails when its cohort does not take the input, or takes it
        and sends nothing, as a role that may decline silently does (see
        ``TestResponderReactivationLoop`` in ``tests/test_mixed.py``); the
        next pass wakes the next parked cohort.  Each failed pass stops
        its cohort for good, so the parked roles run out and
        ``reactivate`` finds none before this loops forever.
        """
        cz = thread.zone
        while True:
            if offending is None and len(cz.journal) == 0:
                # a failed pass cut the journal to nothing: re-fire the opening
                offending = thread.opening
            plan = reactivate(cz, location, offending)
            if plan is None:
                self._fail(rt, thread, "exhausted")
                return
            self._note(
                rt,
                "recovery",
                thread,
                action="reactivation",
                roles=[str(r) for r in plan.refs],
                points=[plan.counterpart_point, plan.own_point],
                restart=plan.own_point == 1,
            )
            self._reply(rt, thread, RECOVER_AT, {"point": plan.counterpart_point})
            if plan.weak_guard:
                self._reply(rt, thread, TERMINATION_WARNING, {"reason": "weak-cohort"})
            if feed(cz, plan.refire, rt.rng) and cz.outbox:
                self._send_selected(rt, thread)
                return
            stop_active(cz)
            location = max(len(cz.journal), 1)
            offending = None

    def _open(self, rt, thread: _MixedThread, msg: Message, takers) -> None:
        thread.zone = instantiate_all(takers, self.registry, thread.journal, msg, rt.rng)
        self._note(
            rt,
            "selection",
            thread,
            step="all-instantiated",
            collection=[str(r) for r in sorted(thread.zone.instances)],
            candidates=len(thread.zone.outbox),
        )
        if not thread.zone.outbox:
            self._fail(rt, thread, "no-viable-role")
            return
        self._send_selected(rt, thread)

    def _on_domain(self, rt, thread: _MixedThread, msg: Message) -> None:
        verdict = handle_incoming(thread.zone, msg, rt.rng)
        if verdict is None:
            if thread.zone.outbox:
                self._send_selected(rt, thread)
            return
        self._reject(rt, thread, msg, verdict)
        stop_active(thread.zone)
        self._wake_parked(
            rt, thread, location=len(thread.zone.journal) + 1, offending=msg
        )

    def _on_error_notice(self, rt, thread: _MixedThread, msg: Message) -> None:
        failed = thread.zone.last_sent  # an open thread has sent: _open fails it otherwise
        kind = msg.content.get("kind", WRONG_STRUCTURE)
        substitute = handle_error_mixed(thread.zone, kind, rt.rng)
        if substitute is not None:
            self._note(
                rt, "recovery", thread, action="replacement", kind=kind, tag=substitute.reply_with
            )
            rt.schedule_send(substitute)
            return
        location = max(1, len(thread.zone.journal) - len(failed.records) + 1)
        self._wake_parked(rt, thread, location, offending=None)
