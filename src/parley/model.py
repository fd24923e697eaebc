"""Protocols, roles, messages and the operations that inspect them.

A protocol bundles message schemas with one state machine per role.
Exactly one role is the initiator; the others are participants.  A
declared multiplicity on each role drives the category split used by
the selection engine:

* two roles, participant multiplicity 1      -> one-to-one
* two roles, participant multiplicity many   -> one-to-many instances
  of a single role (contract-net style)
* more than two roles, each multiplicity 1   -> one interaction with
  several distinct participant roles (auction style)

Anything else mixes traits of different categories.  Only
:func:`validate_protocol` judges a protocol's shape, when it loads: what
a run derives from a loaded protocol reads one that passed, and raises
nothing.

Records are ``typing.NamedTuple`` classes when immutable, and plain
classes with ``__slots__`` and an explicit ``__init__`` otherwise; none
is a dataclass.  Defining a dataclass compiles each of its methods from
source and imports ``inspect``, and with them the package took several
times as long to import, which is most of a fresh ``parley run``.  A
NamedTuple equals any tuple of the same values, so records of two kinds
are never compared: ``Trigger`` and ``Action`` share a layout, and code
reads their ``kind`` (whose values differ) rather than comparing them.
"""

from __future__ import annotations

import json
import re
import sys
from enum import Enum
from os.path import basename
from pathlib import Path
from typing import Any, Callable, NamedTuple, TypeVar

from .errors import ParseError, UnresolvedReferenceError
from .fixtures import ROOT
from .patterns import content_matches, shape_matches, validate_pattern

# ---------------------------------------------------------------------------
# Performatives
#
# Selection performatives drive the role-selection meta protocol and are
# reserved: no domain protocol may use them.  Control performatives carry
# error recovery and termination bookkeeping between two interacting
# agents.  Everything else is a domain performative.
# ---------------------------------------------------------------------------

CALL_FOR_COLLABORATION = "call-for-collaboration"
UNABLE_TO_SELECT = "unable-to-select"
STOP_SELECTION = "stop-selection"
READY_TO_SELECT = "ready-to-select"
NOTIFY_ASSIGNMENT = "notify-assignment"

SELECTION_PERFORMATIVES = frozenset(
    {
        CALL_FOR_COLLABORATION,
        UNABLE_TO_SELECT,
        STOP_SELECTION,
        READY_TO_SELECT,
        NOTIFY_ASSIGNMENT,
    }
)

ERROR_NOTIFY = "error-notify"
RECOVER_AT = "recover-at"
TERMINATION_NOTICE = "termination-notice"
TERMINATION_WARNING = "termination-warning"

CONTROL_PERFORMATIVES = frozenset(
    {ERROR_NOTIFY, RECOVER_AT, TERMINATION_NOTICE, TERMINATION_WARNING}
)

RESERVED_PERFORMATIVES = SELECTION_PERFORMATIVES | CONTROL_PERFORMATIVES


# ---------------------------------------------------------------------------
# Role references
# ---------------------------------------------------------------------------


class RoleRef(NamedTuple):
    """A (protocol_id, role_id) pair; renders as ``protocol:role``."""

    protocol: str
    role: str

    def __str__(self) -> str:
        return f"{self.protocol}:{self.role}"

    @classmethod
    def parse(cls, text: str) -> "RoleRef":
        protocol, sep, role = text.partition(":")
        if not sep or not protocol or not role:
            raise ParseError(f"bad role reference {text!r}, expected 'protocol:role'")
        return cls(protocol, role)


# ---------------------------------------------------------------------------
# Messages and schemas
# ---------------------------------------------------------------------------


class MessageSchema(NamedTuple):
    """Shape of one message kind exchanged inside a protocol."""

    schema_id: str
    performative: str
    content_pattern: Any
    language: str = "kv"
    ontology: str = "core"

    def _envelope_matches(self, msg: "Message") -> bool:
        return (
            msg.performative == self.performative
            and msg.language == self.language
            and msg.ontology == self.ontology
        )

    def structure_matches(self, msg: "Message") -> bool:
        return self._envelope_matches(msg) and shape_matches(
            self.content_pattern, msg.content
        )

    def content_matches(self, msg: "Message") -> bool:
        # a content match implies a shape match: one walk of the tree
        return self._envelope_matches(msg) and content_matches(
            self.content_pattern, msg.content
        )


class Message(NamedTuple):
    """One concrete message on the wire.

    An immutable tuple: ``msg._replace(field=value)`` makes a changed
    copy, and two messages are equal when their fields are (tuple
    equality, so a plain tuple of the same values is equal too).
    Its content is never changed either, so many messages may share one
    content object (a broadcast call, equal offers).
    """

    performative: str
    content: Any
    language: str
    ontology: str
    sender: str
    receiver: str
    conversation_id: str
    reply_with: str | None = None


# ---------------------------------------------------------------------------
# Role state machines
# ---------------------------------------------------------------------------


class RoleKind(str, Enum):
    INITIATOR = "initiator"
    PARTICIPANT = "participant"


#: Declared multiplicity of a role: a positive int, or MANY for an
#: unbounded number of instances of the same role.
MANY = "N"


class Trigger(NamedTuple):
    """What fires a transition.

    ``receive`` waits for a message matching a schema.  ``internal``
    fires on a change of the named agent variable; the very first
    transition of an initiator role is triggered this way when the
    agent takes up a task, and later ones by data_change actions of
    preceding transitions, by the cascade rule stated in
    :mod:`parley.machine`.
    """

    kind: str  # "receive" | "internal"
    schema_id: str | None = None
    variable: str | None = None


class Action(NamedTuple):
    kind: str  # "send" | "data_change" | "none"
    schema_id: str | None = None
    variable: str | None = None


class Transition(NamedTuple):
    from_state: str
    trigger: Trigger
    action: Action
    to_state: str
    method: str


#: builds a tuple subclass from one tuple of its fields, not through the
#: Python-level ``__new__`` of a NamedTuple: a protocol load and a run
#: build many records
_new_tuple = tuple.__new__


_Derived = TypeVar("_Derived")


class RoleStateMachine:
    """One role of a protocol as a transition system.

    A machine is immutable once loaded.  The per-state index behind
    :meth:`transitions_from` is built with the machine, and the data
    :meth:`derived` computes is kept on it, which is sound only because
    nothing changes it; both live and die with the machine.  Equality,
    hashing and the repr read the declared fields alone.
    """

    #: the declared fields, in order
    _FIELDS = (
        "role_id",
        "kind",
        "multiplicity",
        "states",
        "initial_state",
        "terminal_states",
        "transitions",
        "father",
    )
    __slots__ = _FIELDS + ("_by_state", "_derived", "__weakref__")

    def __init__(
        self,
        role_id: str,
        kind: RoleKind,
        multiplicity: int | str,
        states: frozenset[str],
        initial_state: str,
        terminal_states: frozenset[str],
        transitions: tuple[Transition, ...],
        father: str | None = None,
    ) -> None:
        self.role_id = role_id
        self.kind = kind
        self.multiplicity = multiplicity
        self.states = states
        self.initial_state = initial_state
        self.terminal_states = terminal_states
        self.transitions = transitions
        #: participant role whose first message this role's father sends;
        #: None when the role receives its first message from the initiator
        #: (or is the initiator itself).
        self.father = father
        index: dict[str, list[Transition]] = {}
        for t in transitions:
            index.setdefault(t.from_state, []).append(t)
        self._by_state = {state: tuple(ts) for state, ts in index.items()}
        self._derived: dict[Callable, Any] = {}

    def _declared(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._declared() == other._declared()

    def __hash__(self) -> int:
        return hash(self._declared())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"RoleStateMachine({fields})"

    def transitions_from(self, state: str) -> tuple[Transition, ...]:
        """The transitions leaving ``state``, in declaration order."""
        return self._by_state.get(state, ())

    def reachable(self, starts) -> set[str]:
        """The states some path of transitions leads to from ``starts``,
        ``starts`` included."""
        seen = set(starts)
        frontier = list(seen)
        while frontier:
            for t in self.transitions_from(frontier.pop()):
                if t.to_state not in seen:
                    seen.add(t.to_state)
                    frontier.append(t.to_state)
        return seen

    def method_ids(self) -> frozenset[str]:
        return frozenset(t.method for t in self.transitions)

    def derived(self, build: Callable[["RoleStateMachine"], _Derived]) -> _Derived:
        """``build(self)``, computed once and kept on this machine."""
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


class ProtocolCategory(str, Enum):
    ONE_ONE = "one-one"
    ONE_ONE_N = "one-one-many"
    ONE_N = "one-many-roles"


class Protocol(NamedTuple):
    """Message schemas plus one state machine per role.

    A protocol is immutable once loaded, its schemas and roles
    included: the per-machine index and derived data rely on it.
    """

    protocol_id: str
    capability_tags: frozenset[str]
    schemas: dict[str, MessageSchema]
    roles: dict[str, RoleStateMachine]
    #: opaque annotation block, carried but never interpreted
    omega: Any = None

    def initiator_role(self) -> RoleStateMachine:
        return next(m for m in self.roles.values() if m.kind is RoleKind.INITIATOR)

    def participant_roles(self) -> list[RoleStateMachine]:
        return [m for m in self.roles.values() if m.kind is RoleKind.PARTICIPANT]


#: Protocols known to a running system, keyed by protocol_id.
ProtocolRegistry = dict[str, Protocol]


def classify_protocol(protocol: Protocol) -> ProtocolCategory | None:
    """The selection category, or None when the participant roles mix
    category traits (:func:`validate_protocol` reports it)."""
    participants = protocol.participant_roles()
    if len(participants) == 1:
        if participants[0].multiplicity == 1:
            return ProtocolCategory.ONE_ONE
        return ProtocolCategory.ONE_ONE_N
    if all(m.multiplicity == 1 for m in participants):
        return ProtocolCategory.ONE_N
    return None


def father_order(protocol: Protocol) -> list[str] | None:
    """Participant roles in breadth-first father order, or None when
    the father relation is not a forest over them (:func:`validate_protocol`
    reports it).

    A role's father is the role sending its first message; roles fed
    directly by the initiator sit at the top level.
    """
    participants = {m.role_id for m in protocol.participant_roles()}
    initiator_id = protocol.initiator_role().role_id
    children: dict[str | None, list[str]] = {}
    for role_id in sorted(participants):
        father = protocol.roles[role_id].father
        if father == initiator_id or father is None:
            father = None
        elif father not in participants:
            return None
        children.setdefault(father, []).append(role_id)
    order: list[str] = []
    frontier = children.get(None, [])
    while frontier:
        order.extend(frontier)
        frontier = [child for role_id in frontier for child in children.get(role_id, ())]
    return order if len(order) == len(participants) else None


class Violation(NamedTuple):
    code: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code} [{self.subject}]: {self.detail}"


def validate_protocol(protocol: Protocol) -> list[Violation]:
    """Static checks, each fault reported once; an empty report means
    the protocol is usable, and the derivations a run reads assume it."""
    report: list[Violation] = []

    def bad(code: str, subject: str, detail: str) -> None:
        violation = Violation(code, subject, detail)
        if violation not in report:  # one fault met twice is still one fault
            report.append(violation)

    initiators = [m for m in protocol.roles.values() if m.kind is RoleKind.INITIATOR]
    if len(initiators) != 1:
        bad("initiator-count", protocol.protocol_id, f"found {len(initiators)} initiator roles")
    elif not protocol.participant_roles():
        detail = "needs exactly one initiator and at least one participant role"
        bad("composite", protocol.protocol_id, detail)
    elif classify_protocol(protocol) is None:
        detail = "several participant roles with non-unit multiplicity mix category traits"
        bad("composite", protocol.protocol_id, detail)
    for schema in protocol.schemas.values():
        for problem in validate_pattern(schema.content_pattern):
            bad("bad-pattern", f"{protocol.protocol_id}/{schema.schema_id}", problem)
        if schema.performative in RESERVED_PERFORMATIVES:
            bad(
                "reserved-performative",
                f"{protocol.protocol_id}/{schema.schema_id}",
                f"{schema.performative} is reserved for the meta protocol",
            )
    for machine in protocol.roles.values():
        subject = f"{protocol.protocol_id}:{machine.role_id}"
        if machine.initial_state not in machine.states:
            bad("bad-initial", subject, f"initial state {machine.initial_state!r} undeclared")
        if not machine.terminal_states <= machine.states:
            bad("bad-terminals", subject, "terminal states must be declared states")
        if machine.kind is RoleKind.INITIATOR:
            if machine.multiplicity != 1:
                bad("bad-multiplicity", subject, "initiator roles have multiplicity 1")
        elif machine.multiplicity != MANY and (
            not isinstance(machine.multiplicity, int) or machine.multiplicity < 1
        ):
            bad("bad-multiplicity", subject, f"{machine.multiplicity!r}")
        if machine.father is not None and machine.father not in protocol.roles:
            bad("bad-father", subject, f"father {machine.father!r} is not a role")
        for t in machine.transitions:
            if t.from_state not in machine.states or t.to_state not in machine.states:
                bad("bad-transition", subject, f"{t.from_state}->{t.to_state} uses undeclared states")
            if t.from_state in machine.terminal_states:
                bad("terminal-outgoing", subject, f"transition leaves terminal {t.from_state}")
            if t.trigger.kind == "receive" and t.trigger.schema_id not in protocol.schemas:
                bad("bad-schema-ref", subject, f"trigger schema {t.trigger.schema_id!r}")
            if t.action.kind == "send" and t.action.schema_id not in protocol.schemas:
                bad("bad-schema-ref", subject, f"action schema {t.action.schema_id!r}")
        for state in sorted(machine.states - machine.reachable((machine.initial_state,))):
            bad("unreachable-state", subject, state)
        first = machine.transitions_from(machine.initial_state)
        if not first and machine.states - machine.terminal_states:
            bad("no-first-transition", subject, "initial state has no outgoing transition")
        methods = sorted({t.method for t in first})
        if len(methods) > 1:
            # a recovery retraces a journal from the role's one initial method
            detail = f"initial state runs {len(methods)} methods: {', '.join(methods)}"
            bad("initial-method", subject, detail)
        if machine.kind is RoleKind.PARTICIPANT:
            for t in first:
                if t.trigger.kind != "receive":
                    bad("bad-first-trigger", subject, "participant roles start by receiving")
        else:
            for t in first:
                if t.action.kind != "send":
                    bad("bad-first-action", subject, "initiator roles start by sending")
    # the forest check, once every father names a role
    if (
        len(initiators) == 1
        and not any(v.code == "bad-father" for v in report)
        and father_order(protocol) is None
    ):
        bad("bad-father", protocol.protocol_id, "father relation is not a forest")
    return report


# ---------------------------------------------------------------------------
# Interaction models and tasks
# ---------------------------------------------------------------------------


class InteractionModel:
    """The roles an agent is able and willing to enact, per protocol."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, frozenset[str]]) -> None:
        self.entries = entries

    def participant_refs(self, registry: ProtocolRegistry) -> tuple[RoleRef, ...]:
        """The participant roles of ``registry`` it enacts, in role order."""
        return tuple(sorted(
            RoleRef(pid, rid)
            for pid, rids in self.entries.items()
            for rid in rids
            if registry[pid].roles[rid].kind is RoleKind.PARTICIPANT
        ))


class TaskDescription(NamedTuple):
    """A task one agent initiates, with the agents it identified per protocol."""

    task_id: str
    initiator: str
    required_capabilities: frozenset[str]
    participants: dict[str, tuple[str, ...]]
    #: schema id -> the content sent for it; read only, as the default is shared
    contents: dict[str, Any] = {}


def match_task_to_protocols(
    task: TaskDescription,
    model: InteractionModel,
    registry: ProtocolRegistry,
) -> list[tuple[Protocol, str]]:
    """Protocols able to carry the task, paired with the initiator role
    the agent would play.  Ordered by protocol id so exploration is
    reproducible."""
    found: list[tuple[Protocol, str]] = []
    for protocol_id in sorted(registry):
        protocol = registry[protocol_id]
        if not task.required_capabilities <= protocol.capability_tags:
            continue
        initiator = protocol.initiator_role()
        if initiator.role_id in model.entries.get(protocol_id, frozenset()):
            found.append((protocol, initiator.role_id))
    return found


# ---------------------------------------------------------------------------
# Reading JSON documents
#
# Protocol and scenario documents come from outside the program, so both
# readers check the type of every field they take and name where a bad one
# sits.  A location is text (the scenario reader's ``"file: agent a1"``) or
# a tuple of the keys and indexes leading to a value (the protocol
# reader's ``roles[1].transitions[0]``).  Its text is built only when an
# error is raised, so a good document pays for none.  Each helper first
# tries a fast exit (an exact-type test, ``keys.issuperset(raw)`` or one
# dict lookup) and returns as soon as it passes; otherwise it falls
# through to the located checks, the one path that raises each refusal.
# ---------------------------------------------------------------------------


class _Constant(ValueError):
    """``NaN`` or an infinity: JSON has no such value."""


def _refuse_constant(name: str):
    raise _Constant(f"{name} is not a JSON value")


#: a JSON string, skipped whole, or a number: its digits, then a tail
#: (fraction and exponent) that is empty for an integer
_LITERAL = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|-?([0-9]+)((?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)')


def _long_integer(text: str) -> str | None:
    """Where the first integer literal of ``text`` with more digits than
    ``int`` reads stands, and its length; None when there is none."""
    limit = sys.get_int_max_str_digits()
    for literal in _LITERAL.finditer(text):
        digits, tail = literal.groups()
        if digits and not tail and len(digits) > limit:
            at = json.JSONDecodeError("", text, literal.start())  # its line and column
            return (
                f"an integer of {len(digits)} digits at line {at.lineno} column {at.colno}, "
                f"over the limit of {limit}"
            )
    return None


#: the directory of the bundled documents, as text: a bundled name is
#: made a path without a ``Path`` join
_BUNDLED = str(ROOT)

#: strict JSON: ``NaN`` and ``Infinity`` are refused, at no cost to other
#: documents; a key given twice in one object keeps its last value
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def read_document(name: str | Path, kind: str, base_dir: Path | None = None):
    """The JSON value, path and bundledness of the ``kind`` document
    ``name``: a file when the name ends in ``.json`` (in ``base_dir`` when
    relative), else the bundled ``kind`` of that name, which must be a
    bare file name: a path would reach documents of another kind, or
    outside the package.  It is opened once, with no stat, and every
    failure to open or decode it is refused here."""
    name = str(name)
    bundled = not name.endswith(".json")
    if bundled:
        path, missing = f"{_BUNDLED}/{kind}s/{name}.json", f"no bundled {kind} {name!r}"
        if basename(name) != name:
            raise UnresolvedReferenceError(missing)
    else:  # an absolute name replaces base_dir
        path, missing = Path(base_dir or "", name), f"no {kind} file {name!r}"
    try:
        with open(path, "rb") as file:
            data = file.read()
    except (OSError, ValueError):  # no such file, a directory, a NUL or too long a name
        raise UnresolvedReferenceError(missing) from None
    try:
        text = data.decode("utf-8")
        return _DECODER.decode(text), path, bundled
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except RecursionError:
        raise ParseError(f"{path}: not valid JSON (nested too deeply)") from None
    except ValueError as exc:  # a syntax error, a NaN, an integer of too many digits
        located = _long_integer(text) if type(exc) is ValueError else None
        raise ParseError(f"{path}: not valid JSON ({located or exc})") from None


_KIND_NAMES = {
    dict: "a JSON object",
    list: "a JSON array",
    int: "an integer",
    str: "a string",
    bool: "a JSON boolean",
}


def _located(where: str | tuple, key: str | None = None) -> str:
    """The text of location ``where``, or of ``key`` within it."""
    if isinstance(where, str):
        return where if key is None else f"{where}: {key}"
    steps = where if key is None else (*where, key)
    text = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in steps)
    return text.lstrip(".") or "top level"


def _typed(value, kind: type, where: str | tuple, key: str | None = None):
    """``value``, checked to be a ``kind`` (a JSON ``true`` is no integer);
    an error names ``key`` within ``where``."""
    if type(value) is kind:  # what a JSON document holds
        return value
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(
            f"{_located(where, key)}: expected {_KIND_NAMES[kind]}, got {value!r:.40}"
        )
    return value


def _require(raw: dict, key: str, where: str | tuple, kind: type = object):
    """``raw[key]``, checked to be a ``kind``; ``raw`` sits at ``where``."""
    if type(raw) is dict and key in raw:
        value = raw[key]
        if kind is object or type(value) is kind:
            return value
    if not isinstance(raw, dict) or key not in raw:
        _typed(raw, dict, where)  # raises the located error for a non-object
        raise ParseError(f"{_located(where)}: missing {key!r}")
    value = raw[key]
    return value if kind is object else _typed(value, kind, where, key)


#: the type of every element of a good array of names
_STRINGS = frozenset({str})


def _is_names(value) -> bool:
    """Whether ``value`` is exactly a list of exactly strings, as a JSON
    array of strings is."""
    return type(value) is list and _STRINGS.issuperset(map(type, value))


def _names(value, where: str | tuple, key: str | None = None) -> tuple[str, ...]:
    """A JSON array of strings; an error names the bad element."""
    if _is_names(value):
        return tuple(value)
    names = tuple(_typed(value, list, where, key))
    for i, name in enumerate(names):
        if not isinstance(name, str):
            _typed(name, str, f"{_located(where, key)}[{i}]")  # raises the located error
    return names


def _known(raw, keys: frozenset[str] | set[str], where: str | tuple) -> dict:
    """``raw``, checked to be an object with no key outside ``keys``: a
    misspelt optional field would otherwise take its default."""
    if type(raw) is dict and keys.issuperset(raw):
        return raw
    for key in _typed(raw, dict, where):
        if key not in keys:
            raise ParseError(f"{_located(where)}: unknown key {key!r:.40}")
    return raw


_ROLE_KINDS = {kind.value: kind for kind in RoleKind}

#: the keys each object of a protocol document may have
_PROTOCOL_KEYS = frozenset({"protocol_id", "capability_tags", "schemas", "roles", "omega"})
_SCHEMA_KEYS = frozenset({"schema_id", "performative", "content_pattern", "language", "ontology"})
_ROLE_KEYS = frozenset(
    {"role_id", "kind", "multiplicity", "father", "states", "initial", "terminals", "transitions"}
)
_TRANSITION_KEYS = frozenset({"from", "trigger", "action", "to", "method"})
#: each kind of a transition's trigger or action -> the one name key it
#: carries, None for a kind that carries none
_TRIGGER_KINDS = {"receive": "schema", "internal": "variable"}
_ACTION_KINDS = {"send": "schema", "data_change": "variable", "none": None}
_NO_ACTION = Action("none")


def _end_from_dict(raw: dict, where: tuple, end: str, record: type, kinds: dict):
    """The ``end`` (``trigger`` or ``action``) of the transition at
    ``where``: a ``record`` of a kind in ``kinds`` and its one name, the
    other name None (an end has no key beyond its kind's)."""
    if type(raw) is dict and type(kind := raw.get("kind")) is str and kind in kinds:
        key = kinds[kind]
        if key is None:
            if len(raw) == 1:
                return _NO_ACTION
        elif len(raw) == 2 and type(raw.get(key)) is str:
            return _new_tuple(record, (kind, raw.get("schema"), raw.get("variable")))
    where = (*where, end)
    kind = _require(raw, "kind", where)
    if not isinstance(kind, str) or kind not in kinds:
        raise ParseError(f"{_located(where, 'kind')}: unknown {end} kind {kind!r:.40}")
    key = kinds[kind]
    _known(raw, {"kind", key} if key else {"kind"}, where)
    if key is None:
        return _NO_ACTION
    _require(raw, key, where, str)
    return _new_tuple(record, (kind, raw.get("schema"), raw.get("variable")))


def _transition_from_dict(raw: dict, where: tuple) -> Transition:
    """The transition at ``where``."""
    if type(raw) is dict and len(raw) == 5 and _TRANSITION_KEYS.issuperset(raw):
        from_state, to_state, method = raw["from"], raw["to"], raw["method"]
        if type(from_state) is str and type(to_state) is str and type(method) is str:
            return _new_tuple(Transition, (
                from_state,
                _end_from_dict(raw["trigger"], where, "trigger", Trigger, _TRIGGER_KINDS),
                _end_from_dict(raw["action"], where, "action", Action, _ACTION_KINDS),
                to_state,
                method,
            ))
    _known(raw, _TRANSITION_KEYS, where)
    return _new_tuple(Transition, (
        _require(raw, "from", where, str),
        _end_from_dict(_require(raw, "trigger", where), where, "trigger", Trigger, _TRIGGER_KINDS),
        _end_from_dict(_require(raw, "action", where), where, "action", Action, _ACTION_KINDS),
        _require(raw, "to", where, str),
        _require(raw, "method", where, str),
    ))


def protocol_from_dict(raw: dict) -> Protocol:
    """The protocol of a JSON document, every field checked for its type.

    An error names the JSON path of the bad field, as in
    ``roles[1].transitions[0].trigger``; :func:`load_protocol` adds the
    file.  The static checks of :func:`validate_protocol` are not made here.
    """
    schemas: dict[str, MessageSchema] = {}
    protocol_id = _require(_known(raw, _PROTOCOL_KEYS, ()), "protocol_id", (), str)
    for i, s in enumerate(_require(raw, "schemas", (), list)):
        at = ("schemas", i)
        schema_id = _require(_known(s, _SCHEMA_KEYS, at), "schema_id", at, str)
        if schema_id in schemas:
            raise ParseError(f"{_located(at, 'schema_id')}: duplicate schema id {schema_id!r}")
        schemas[schema_id] = MessageSchema(
            schema_id,
            _require(s, "performative", at, str),
            _require(s, "content_pattern", at),
            _typed(s.get("language", "kv"), str, at, "language"),
            _typed(s.get("ontology", "core"), str, at, "ontology"),
        )
    roles: dict[str, RoleStateMachine] = {}
    for i, r in enumerate(_require(raw, "roles", (), list)):
        at = ("roles", i)
        role_id = _require(_known(r, _ROLE_KEYS, at), "role_id", at, str)
        if role_id in roles:
            raise ParseError(f"{_located(at, 'role_id')}: duplicate role id {role_id!r}")
        kind = _ROLE_KINDS.get(_require(r, "kind", at, str))
        if kind is None:
            raise ParseError(f"{_located(at, 'kind')}: unknown role kind {r['kind']!r:.40}")
        multiplicity = _require(r, "multiplicity", at)
        if multiplicity != MANY and type(multiplicity) is not int:
            raise ParseError(
                f"{_located(at, 'multiplicity')}: expected an integer or {MANY!r}, "
                f"got {multiplicity!r:.40}"
            )
        father = r.get("father")
        if father is not None:
            _typed(father, str, at, "father")
        transitions = [
            _transition_from_dict(t, (*at, "transitions", j))
            for j, t in enumerate(_require(r, "transitions", at, list))
        ]
        roles[role_id] = RoleStateMachine(
            role_id,
            kind,
            multiplicity,
            frozenset(_names(_require(r, "states", at), at, "states")),
            _require(r, "initial", at, str),
            frozenset(_names(_require(r, "terminals", at), at, "terminals")),
            tuple(transitions),
            father,
        )
    return Protocol(
        protocol_id,
        frozenset(_names(raw.get("capability_tags", []), (), "capability_tags")),
        schemas,
        roles,
        raw.get("omega"),
    )


def require_valid(protocol: Protocol, where: str) -> Protocol:
    """``protocol``, refused naming ``where`` if :func:`validate_protocol` objects."""
    violations = validate_protocol(protocol)
    if violations:
        raise ParseError(f"{where}: invalid protocol: " + "; ".join(map(str, violations)))
    return protocol


def load_protocol(name: str | Path, base_dir: Path | None = None) -> Protocol:
    """The protocol document ``name`` (see :func:`read_document`), validated
    unless bundled: ``TestValidation.test_bundled_protocols_are_clean`` in
    ``tests/test_model.py`` validates the bundled ones once, not every run."""
    raw, path, bundled = read_document(name, "protocol", base_dir)
    try:
        protocol = protocol_from_dict(raw)
    except ParseError as exc:
        raise ParseError(f"{path}: malformed protocol document: {exc}") from None
    return protocol if bundled else require_valid(protocol, str(path))
