"""Deterministic discrete-tick message bus with scripted fault injection.

Agents are step functions invoked serially: the bus takes the next
delivery, hands it to the receiving agent, and collects whatever that
agent schedules in response.  Zero-delay sends land later within the
same tick, so a request/reply cascade plays out tick-locally while
still being totally ordered by enqueue sequence.  All randomness in a
run flows through the single seeded stream owned by the bus, and the
trace is a flat list of events ordered by (tick, sequence), so a
(scenario, seed) pair reproduces byte-identically.

Pending messages sit in one FIFO queue per tick, a calendar queue with
a bucket per tick.  A send appends to the queue of its tick, and the
bus drains the earliest tick's queue from the front.  Sequence numbers
only grow, so each queue is already in sequence order, and a zero-delay
send made while a tick is drained lands behind everything queued for
that tick: the (tick, sequence) order of a heap, at the cost of an
append and a pop.

The bus records each message once: a send event's payload is a
``Sent(seq, message)`` record and a deliver event's a
``Delivered(seq, message)``, each holding the ``Message`` itself (for a
delivery, the message after any fault).  A record reads like the dict
of its trace fields, and ``render_trace`` writes its line straight off
the message.  Agents' notes and fault events are dicts.

Timers are plain self-addressed messages: an agent that wants to hear
back in N ticks schedules a wake to itself with delay N.  Self-sends
never count as conversation traffic, which keeps fault ordinals and
message tallies about the actual exchange.  Fault matching runs only
once a fault is injected.

A zero-delay livelock is caught by depth, not by breadth.  Each pending
message carries its zero-delay hop count: 0 when it was sent before the
run, from ``on_start`` or with a delay, and one more than the delivery
being handled when a handler sends it with no delay (wakes included).
A chain deeper than ``MAX_ZERO_DELAY_HOPS`` is a livelock; a tick may
deliver any number of messages that are each a few hops deep.

A run makes no reference cycles: messages, events and states are
freed by reference counting as soon as they are dropped.  Automatic
cyclic garbage collection would only rescan the live agents, so
``run_until_quiescent`` runs under ``collector_paused``, which pauses
it and then restores the caller's setting.  Parsing a scenario and
wiring its agents make no cycles either and run under the same pause,
so the collector is paused while a scenario is parsed, wired and run.
"""

from __future__ import annotations

import gc
import json
import re
from collections import deque
from fnmatch import fnmatch
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from os.path import normcase
from random import Random
from sys import getrefcount
from typing import NamedTuple

from .errors import BudgetExceededError, UnknownReceiverError
from .model import RESERVED_PERFORMATIVES, Message, _new_tuple
from .patterns import get_leaf, leaf_paths, set_leaf

#: performative of self-addressed timer messages
WAKE = "wake"

#: deepest zero-delay chain a run delivers; a deeper one is a livelock
MAX_ZERO_DELAY_HOPS = 10_000


class _CollectorPause:
    """Automatic garbage collection paused for a ``with`` block, then
    restored as the caller had it, however the block exits.

    Both methods are static, so ``with`` binds no method object: entering
    allocates nothing the collector tracks, and no collection can start
    between the caller's call and the pause.  Blocks nest; each restores
    the setting its own entry found.  The setting is the process's, so
    the stack of found settings is kept on the class.
    """

    __slots__ = ()
    #: the settings the open blocks found, innermost last
    _found: list[bool] = []

    @staticmethod
    def __enter__() -> None:
        _CollectorPause._found.append(gc.isenabled())
        gc.disable()

    @staticmethod
    def __exit__(kind, error, traceback) -> None:
        if _CollectorPause._found.pop():
            gc.enable()


collector_paused = _CollectorPause()


class TraceEvent(NamedTuple):
    """One trace event: a ``(tick, kind, payload)`` tuple.

    ``tick`` is the bus's ``int`` tick and ``kind`` one of send, deliver,
    fault, recovery, selection or termination.  The payload of a send or
    deliver event is a :class:`Sent` or :class:`Delivered` record, which
    holds the message itself and reads like the dict of its trace
    fields; every other payload is a dict, rendered whole through
    :meth:`as_dict`.  A payload is stored as the bus or the agent passed
    it, not copied, so it must not change once noted.
    """

    tick: int
    kind: str
    payload: dict | Sent | Delivered

    def as_dict(self) -> dict:
        return {"tick": self.tick, "kind": self.kind, **self.payload}


#: the index of a ``Message`` field in the tuple
_AT = Message._fields.index


class _BusRecord(tuple):
    """A ``(seq, message)`` tuple with a read-only view of the dict of its
    trace fields: ``record["from"]``, ``get``, ``keys()``, ``in``,
    ``dict(record)`` and ``{**record}`` see the fields of ``_FIELDS``, in
    line order, with the message's values.  It copies nothing, so it is
    as immutable as its message.  Iterating it, as for any tuple, gives
    its seq and message."""

    __slots__ = ()
    #: trace field -> the index of its value in the message, None for the
    #: seq; in the order a trace line writes the fields
    _FIELDS: dict[str, int | None] = {}

    def __new__(cls, seq: int, message: Message):
        return tuple.__new__(cls, (seq, message))

    @property
    def seq(self) -> int:
        return tuple.__getitem__(self, 0)

    @property
    def message(self) -> Message:
        return tuple.__getitem__(self, 1)

    def keys(self):
        return self._FIELDS.keys()

    def __contains__(self, key) -> bool:
        return key in self._FIELDS

    def __getitem__(self, key):
        index = self._FIELDS[key]
        seq, message = self
        return seq if index is None else message[index]

    def get(self, key, default=None):
        return self[key] if key in self._FIELDS else default


class Sent(_BusRecord):
    """A send event's payload: the sequence number and the message as
    it was scheduled."""

    __slots__ = ()
    _FIELDS = {
        "seq": None,
        "from": _AT("sender"),
        "to": _AT("receiver"),
        "conversation": _AT("conversation_id"),
        "performative": _AT("performative"),
        "tag": _AT("reply_with"),
        "content": _AT("content"),
    }


class Delivered(_BusRecord):
    """A deliver event's payload: the sequence number and the message as
    it was handed to its receiver, after any fault."""

    __slots__ = ()
    _FIELDS = {
        field: Sent._FIELDS[field] for field in ("seq", "from", "to", "conversation", "performative")
    }


def render_trace(trace: list[TraceEvent]) -> str:
    """One JSON object per line, fields in insertion order.

    Each line is what ``json.dumps`` writes for ``event.as_dict()`` with
    its defaults.  A :class:`Sent` or :class:`Delivered` payload is
    written from a template, read straight off its message, which holds
    for the values the bus writes: ``int`` ticks and seqs, ``str`` kinds
    and ids, a ``str`` or ``None`` tag; an id, performative or tag of
    another type raises ``TypeError`` from the quoting.  Ints are written as
    ``int.__repr__`` and strings through the ``encode_basestring_ascii``
    of ``json.dumps``; a send's ``content`` goes through the C encoder,
    once per call for each distinct content object (a content is never
    changed once sent, and a broadcast call or equal offers share one).
    Every other event (an agent's note, a fault) is encoded whole through
    ``event.as_dict()``.  One C encoder, with the ``json.dumps``
    defaults, serves the whole call.
    """
    if c_make_encoder is None:
        return "".join(json.dumps(event.as_dict()) + "\n" for event in trace)
    # the arguments json.dumps passes: circular check, default hook,
    # ASCII escaping, no indent, its separators, no key sort, no key skip,
    # NaN allowed
    encode = c_make_encoder(
        {}, JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ", ", False, False, True,
    )
    quote = encode_basestring_ascii
    #: id of a shared send content -> its JSON text; every event is alive
    #: for the whole call, so no id is reused while this map is
    texts: dict[int, str] = {}
    lines: list[str] = []
    for event in trace:
        tick, kind, payload = event
        record = type(payload)
        try:
            if record is Sent:
                seq, (performative, content, _, _, sender, receiver, conversation, tag) = payload
                text = texts.get(id(content))
                if text is None:
                    text = "".join(encode(content, 0))
                    # keep the text only of a content held beyond its
                    # message (which, the local and the call make 3
                    # references): only such a content can recur, and
                    # most are one message's alone
                    if getrefcount(content) > 3:
                        texts[id(content)] = text
                lines.append(
                    f'{{"tick": {tick}, "kind": {quote(kind)}, "seq": {seq}, '
                    f'"from": {quote(sender)}, "to": {quote(receiver)}, '
                    f'"conversation": {quote(conversation)}, '
                    f'"performative": {quote(performative)}, '
                    f'"tag": {"null" if tag is None else quote(tag)}, '
                    f'"content": {text}}}\n'
                )
            elif record is Delivered:
                seq, (performative, _, _, _, sender, receiver, conversation, _) = payload
                lines.append(
                    f'{{"tick": {tick}, "kind": {quote(kind)}, "seq": {seq}, '
                    f'"from": {quote(sender)}, "to": {quote(receiver)}, '
                    f'"conversation": {quote(conversation)}, '
                    f'"performative": {quote(performative)}}}\n'
                )
            else:
                lines.append("".join(encode(event.as_dict(), 0)) + "\n")
        except (TypeError, ValueError):
            # raise what json.dumps raises for the whole event, from a fresh
            # encoder: the shared one may have failed on a part of the event
            # only, and is never retried, because a failed encode leaves its
            # ids in the shared circular-check markers
            json.dumps(event.as_dict())
            raise
    return "".join(lines)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

STRUCTURE_FIELDS = ("performative", "language", "ontology", "shape")


class FaultSpec(NamedTuple):
    """One-shot mutation of the n-th conversation message in flight.

    ``conversation`` is an ``fnmatch`` glob over conversation ids.
    ``ordinal`` (1-based) counts the counted messages of every
    conversation the pattern matches, together: ``t1/*`` with ordinal 3
    hits the third counted message across all of ``t1``'s conversations.
    Only messages of the interaction itself are counted: reserved
    (selection and control) performatives and self-addressed wakes pass
    through untouched and uncounted.  Specs that hit the same message
    apply in the order they were injected (file order for a scenario).
    The bus resolves the patterns once per conversation, when it first
    sees it.  The scenario reader, where faults come from, checks the
    ordinal, the op and the structure field; the bus takes a spec as it
    is.
    """

    conversation: str
    ordinal: int
    op: str  # corrupt_structure | corrupt_content
    #: for corrupt_structure: which of ``STRUCTURE_FIELDS`` to mangle
    structure_field: str = "performative"
    #: for corrupt_content: path to the leaf to type-swap; falls back
    #: to the first leaf when the path does not resolve
    path: tuple = ()


def corrupt_structure(msg: Message, structure_field: str) -> Message:
    """Break one structural facet while leaving the payload alone."""
    if structure_field == "performative":
        return msg._replace(performative=f"garbled-{msg.performative}")
    if structure_field == "language":
        return msg._replace(language="garbled")
    if structure_field == "ontology":
        return msg._replace(ontology="garbled")
    if isinstance(msg.content, dict):
        return msg._replace(content={**msg.content, "garbled": True})
    return msg._replace(content={"garbled": msg.content})


def corrupt_content(msg: Message, path: tuple) -> Message:
    """Swap the type of one content leaf; the shape stays intact."""
    paths = leaf_paths(msg.content)
    if not paths:
        return msg
    target = tuple(path) if tuple(path) in paths else paths[0]
    old = get_leaf(msg.content, target)
    new = 99 if isinstance(old, str) else "garbled"
    return msg._replace(content=set_leaf(msg.content, target, new))


class _FaultState:
    __slots__ = ("spec", "seen")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.seen = 0


#: the characters that end a glob's literal prefix
_GLOB_SPECIAL = re.compile(r"[*?[]")


def _literal_prefix(pattern: str) -> str:
    """What every id a glob matches starts with (normcased, as fnmatch does)."""
    return _GLOB_SPECIAL.split(normcase(pattern), 1)[0]


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------


class AgentBase:
    """Anything the bus can deliver to: a named agent that ignores everything."""

    def __init__(self, name: str) -> None:
        self.name = name

    def on_start(self, runtime: "SimRuntime") -> None:
        """Called once before the first tick runs."""

    def on_message(self, runtime: "SimRuntime", msg: Message) -> None:
        """Handle one delivered message; schedule replies on the runtime."""


class SimRuntime:
    def __init__(self, seed: int = 0, max_ticks: int = 200) -> None:
        if max_ticks <= 0:
            raise ValueError("max_ticks must be positive")
        #: the tick being delivered; ticks are drained in order
        self.tick = 0
        self.rng = Random(seed)
        self.max_ticks = max_ticks
        self.agents: dict[str, AgentBase] = {}
        self.trace: list[TraceEvent] = []
        #: tick -> its pending (seq, message, zero-delay hops), in seq order
        self._queues: dict[int, deque[tuple[int, Message, int]]] = {}
        self._seq = 0
        #: hops of the delivery being handled; -1 outside any delivery,
        #: so that a zero-delay send made there gets 0
        self._hops = -1
        self._faults: list[_FaultState] = []
        #: literal prefix -> indices into _faults of the specs with that prefix
        self._fault_buckets: dict[str, list[int]] = {}
        #: conversation id -> matching states in injection order, on first sight
        self._conversation_faults: dict[str, list[_FaultState]] = {}
        self._started = False

    # -- wiring ------------------------------------------------------------

    def register(self, agent: AgentBase) -> None:
        if agent.name in self.agents:
            raise ValueError(f"agent {agent.name!r} registered twice")
        self.agents[agent.name] = agent

    def inject_fault(self, spec: FaultSpec) -> None:
        bucket = self._fault_buckets.setdefault(_literal_prefix(spec.conversation), [])
        bucket.append(len(self._faults))
        self._faults.append(_FaultState(spec))
        # conversations already resolved may match the new spec too
        self._conversation_faults.clear()

    # -- event log ---------------------------------------------------------

    def note(self, kind: str, payload: dict) -> None:
        """Append an event with a dict payload: an agent's note or a fault."""
        self.trace.append(_new_tuple(TraceEvent, (self.tick, kind, payload)))

    # -- sending -----------------------------------------------------------

    def schedule_send(self, msg: Message, delay: int = 0) -> None:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        if msg.receiver not in self.agents:
            raise UnknownReceiverError(f"no agent named {msg.receiver!r}")
        self._seq += 1
        tick = self.tick + delay
        queue = self._queues.get(tick)
        if queue is None:
            queue = self._queues[tick] = deque()
        queue.append((self._seq, msg, 0 if delay else self._hops + 1))
        # every send and delivery is recorded: build both tuples with the
        # tuple constructor, not through a Python-level __new__
        self.trace.append(
            _new_tuple(TraceEvent, (self.tick, "send", _new_tuple(Sent, (self._seq, msg))))
        )

    def wake_self(self, agent: str, conversation: str, content: dict, delay: int) -> None:
        """Schedule a timer: a wake message from the agent to itself."""
        self.schedule_send(
            Message(WAKE, content, "kv", "core", agent, agent, conversation), delay
        )

    # -- running -----------------------------------------------------------

    def _counted_for_faults(self, msg: Message) -> bool:
        return (
            msg.sender != msg.receiver
            and msg.performative not in RESERVED_PERFORMATIVES
            and msg.performative != WAKE
        )

    def _faults_for(self, conversation: str) -> list[_FaultState]:
        """The fault states whose pattern matches, in injection order.

        Only specs whose literal prefix starts the id are candidates, so
        resolving a conversation calls ``fnmatch`` on those alone.
        """
        states = self._conversation_faults.get(conversation)
        if states is None:
            name = normcase(conversation)
            candidates = sorted(
                i
                for end in range(len(name) + 1)
                for i in self._fault_buckets.get(name[:end], ())
            )
            states = [
                self._faults[i] for i in candidates
                if fnmatch(conversation, self._faults[i].spec.conversation)
            ]
            self._conversation_faults[conversation] = states
        return states

    def _fire(self, seq: int, msg: Message, spec: FaultSpec) -> Message:
        """Apply one spec to the message in flight and note it."""
        if spec.op == "corrupt_structure":
            msg = corrupt_structure(msg, spec.structure_field)
        else:
            msg = corrupt_content(msg, spec.path)
        self.note(
            "fault",
            {
                "seq": seq,
                "op": spec.op,
                "conversation": msg.conversation_id,
                "ordinal": spec.ordinal,
            },
        )
        return msg

    def _apply_faults(self, seq: int, msg: Message) -> Message:
        if not self._counted_for_faults(msg):
            return msg
        for state in self._faults_for(msg.conversation_id):
            # seen only grows, so each spec fires once
            state.seen += 1
            if state.seen == state.spec.ordinal:
                msg = self._fire(seq, msg, state.spec)
        return msg

    def _deliver(self, seq: int, msg: Message) -> None:
        if self._faults:
            msg = self._apply_faults(seq, msg)
        self.trace.append(
            _new_tuple(TraceEvent, (self.tick, "deliver", _new_tuple(Delivered, (seq, msg))))
        )
        self.agents[msg.receiver].on_message(self, msg)

    def run_until_quiescent(self) -> list[TraceEvent]:
        """Deliver until nothing is pending; return the trace.

        Automatic garbage collection is paused for the run (see the
        module docstring) and left as the caller had it on every exit.
        A delivery that raises leaves the undelivered messages pending.
        """
        queues = self._queues
        with collector_paused:
            try:
                if not self._started:
                    self._started = True
                    for agent in list(self.agents.values()):
                        agent.on_start(self)
                while queues:
                    tick = min(queues)
                    if tick > self.max_ticks:
                        pending = sum(len(queue) for queue in queues.values())
                        raise BudgetExceededError(
                            f"{pending} message(s) still pending at tick budget "
                            f"{self.max_ticks}"
                        )
                    self.tick = tick
                    queue = queues[tick]
                    pop = queue.popleft
                    while queue:
                        seq, msg, hops = pop()
                        if hops > MAX_ZERO_DELAY_HOPS:
                            queue.appendleft((seq, msg, hops))
                            raise BudgetExceededError(
                                f"over {MAX_ZERO_DELAY_HOPS} zero-delay hops in tick "
                                f"{tick}; zero-delay livelock"
                            )
                        self._hops = hops
                        self._deliver(seq, msg)
                    del queues[tick]
            finally:
                self._hops = -1
        return self.trace
