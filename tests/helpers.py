"""Builders shared by the test modules.

Protocols built here are intentionally minimal but pass
validate_protocol, so tests exercising selection logic do not drag in
hand-written JSON documents.  The scenario builders at the end make
seeded multi-task scenario documents over the bundled protocols.
"""

from __future__ import annotations

from pathlib import Path
from random import Random
from typing import Callable

import parley.agents
from parley.agents import IndividualInitiator, SequentialResponder
from parley.fixtures import ROOT as FIXTURES
from parley.model import (
    MANY,
    Action,
    InteractionModel,
    MessageSchema,
    Protocol,
    RoleKind,
    RoleRef,
    RoleStateMachine,
    TaskDescription,
    Transition,
    Trigger,
)
from parley.runtime import FaultSpec, SimRuntime
from parley.scenario import Scenario, parse_scenario, scenario_from_dict


def protocol_path(name: str) -> Path:
    """The file of the bundled protocol ``name``."""
    return FIXTURES / "protocols" / f"{name}.json"


def scenario_path(name: str) -> Path:
    """The file of the bundled scenario ``name``."""
    return FIXTURES / "scenarios" / f"{name}.json"


def _ask_schema(performative: str = "ask-one") -> MessageSchema:
    return MessageSchema(
        schema_id="ask",
        performative=performative,
        content_pattern={"q": "?string"},
    )


def _reply_schema(performative: str = "tell") -> MessageSchema:
    return MessageSchema(
        schema_id="reply",
        performative=performative,
        content_pattern={"a": "?string"},
    )


def one_one_protocol(
    protocol_id: str,
    tags: tuple[str, ...] = ("query",),
    initiator_id: str = "asker",
    participant_id: str = "replier",
) -> Protocol:
    """Two roles, one exchange: ask, answer, done."""
    initiator = RoleStateMachine(
        role_id=initiator_id,
        kind=RoleKind.INITIATOR,
        multiplicity=1,
        states=frozenset({"s0", "s1", "done"}),
        initial_state="s0",
        terminal_states=frozenset({"done"}),
        transitions=(
            Transition(
                "s0",
                Trigger(kind="internal", variable="task"),
                Action(kind="send", schema_id="ask"),
                "s1",
                f"{protocol_id}-send-ask",
            ),
            Transition(
                "s1",
                Trigger(kind="receive", schema_id="reply"),
                Action(kind="none"),
                "done",
                f"{protocol_id}-take-reply",
            ),
        ),
    )
    participant = RoleStateMachine(
        role_id=participant_id,
        kind=RoleKind.PARTICIPANT,
        multiplicity=1,
        states=frozenset({"p0", "done"}),
        initial_state="p0",
        terminal_states=frozenset({"done"}),
        transitions=(
            Transition(
                "p0",
                Trigger(kind="receive", schema_id="ask"),
                Action(kind="send", schema_id="reply"),
                "done",
                f"{protocol_id}-answer",
            ),
        ),
    )
    return Protocol(
        protocol_id=protocol_id,
        capability_tags=frozenset(tags),
        schemas={"ask": _ask_schema(), "reply": _reply_schema()},
        roles={initiator_id: initiator, participant_id: participant},
    )


def one_one_n_protocol(
    protocol_id: str,
    tags: tuple[str, ...] = ("tender",),
    participant_id: str = "bidder",
) -> Protocol:
    """Two roles where the participant side is instantiated many times."""
    base = one_one_protocol(protocol_id, tags, participant_id=participant_id)
    bidder = base.roles[participant_id]
    many = RoleStateMachine(
        role_id=bidder.role_id,
        kind=bidder.kind,
        multiplicity=MANY,
        states=bidder.states,
        initial_state=bidder.initial_state,
        terminal_states=bidder.terminal_states,
        transitions=bidder.transitions,
    )
    return Protocol(
        protocol_id=base.protocol_id,
        capability_tags=base.capability_tags,
        schemas=base.schemas,
        roles={"asker": base.roles["asker"], participant_id: many},
    )


def one_n_protocol(
    protocol_id: str,
    fathers: dict[str, str | None],
    tags: tuple[str, ...] = ("ceremony",),
) -> Protocol:
    """One initiator plus one unit-multiplicity role per ``fathers`` key.

    ``fathers`` maps each participant role to the participant sending
    its first message, or None when that message comes from the
    initiator.
    """
    kick = MessageSchema(
        schema_id="kick", performative="inform", content_pattern={"go": "?string"}
    )
    roles: dict[str, RoleStateMachine] = {
        "chair": RoleStateMachine(
            role_id="chair",
            kind=RoleKind.INITIATOR,
            multiplicity=1,
            states=frozenset({"s0", "done"}),
            initial_state="s0",
            terminal_states=frozenset({"done"}),
            transitions=(
                Transition(
                    "s0",
                    Trigger(kind="internal", variable="task"),
                    Action(kind="send", schema_id="kick"),
                    "done",
                    f"{protocol_id}-kickoff",
                ),
            ),
        )
    }
    for role_id, father in fathers.items():
        roles[role_id] = RoleStateMachine(
            role_id=role_id,
            kind=RoleKind.PARTICIPANT,
            multiplicity=1,
            states=frozenset({"p0", "done"}),
            initial_state="p0",
            terminal_states=frozenset({"done"}),
            transitions=(
                Transition(
                    "p0",
                    Trigger(kind="receive", schema_id="kick"),
                    Action(kind="none"),
                    "done",
                    f"{protocol_id}-{role_id}-join",
                ),
            ),
            father=father,
        )
    return Protocol(
        protocol_id=protocol_id,
        capability_tags=frozenset(tags),
        schemas={"kick": kick},
        roles=roles,
    )


def twin_protocol(protocol_id: str, pokeable: bool = False, answer: str = "tell") -> Protocol:
    """Servers that answer any ask with the same textual tell (or
    another ``answer`` performative); the pokeable variant also accepts
    a poke where its twin cannot."""
    schemas = {
        "ask": MessageSchema(
            schema_id="ask",
            performative="ask-one",
            content_pattern={"attribute": "?string", "document": "?string"},
        ),
        "reply": MessageSchema(
            schema_id="reply", performative=answer, content_pattern={"value": "?string"}
        ),
    }
    transitions = [
        Transition(
            "p0",
            Trigger(kind="receive", schema_id="ask"),
            Action(kind="data_change", variable="q"),
            "p1",
            f"{protocol_id}-take",
        ),
        Transition(
            "p1",
            Trigger(kind="internal", variable="q"),
            Action(kind="send", schema_id="reply"),
            "p0",
            f"{protocol_id}-answer",
        ),
    ]
    if pokeable:
        schemas["poke"] = MessageSchema(
            schema_id="poke", performative="request", content_pattern={"note": "?string"}
        )
        transitions.append(
            Transition(
                "p0",
                Trigger(kind="receive", schema_id="poke"),
                Action(kind="data_change", variable="q"),
                "p1",
                f"{protocol_id}-poked",
            )
        )
    machine = RoleStateMachine(
        role_id="server",
        kind=RoleKind.PARTICIPANT,
        multiplicity=1,
        states=frozenset({"p0", "p1"}),
        initial_state="p0",
        terminal_states=frozenset(),
        transitions=tuple(transitions),
    )
    return Protocol(
        protocol_id=protocol_id,
        capability_tags=frozenset({"twinning"}),
        schemas=schemas,
        roles={"server": machine},
    )


def _role(role_id: str, kind: RoleKind, transitions: tuple[Transition, ...]) -> RoleStateMachine:
    """A unit-multiplicity role whose states are those its transitions
    name; the first transition starts it and ``done`` ends it."""
    states = {t.from_state for t in transitions} | {t.to_state for t in transitions}
    return RoleStateMachine(
        role_id=role_id,
        kind=kind,
        multiplicity=1,
        states=frozenset(states),
        initial_state=transitions[0].from_state,
        terminal_states=frozenset({"done"}),
        transitions=transitions,
    )


def _rewind_protocol(
    protocol_id: str, answer: MessageSchema, accepted: tuple[MessageSchema, ...]
) -> Protocol:
    """An asker taking any ``accepted`` answer, and a server that takes
    the ask into ``q`` and then answers it with ``answer``."""
    asker = _role(
        "asker",
        RoleKind.INITIATOR,
        (
            Transition(
                "s0",
                Trigger(kind="internal", variable="task"),
                Action(kind="send", schema_id="ask"),
                "s1",
                "ask",
            ),
            *(
                Transition(
                    "s1",
                    Trigger(kind="receive", schema_id=schema.schema_id),
                    Action(kind="none"),
                    "done",
                    f"got-{schema.schema_id}",
                )
                for schema in accepted
            ),
        ),
    )
    server = _role(
        "server",
        RoleKind.PARTICIPANT,
        (
            Transition(
                "p0",
                Trigger(kind="receive", schema_id="ask"),
                Action(kind="data_change", variable="q"),
                "p1",
                "take",
            ),
            Transition(
                "p1",
                Trigger(kind="internal", variable="q"),
                Action(kind="send", schema_id=answer.schema_id),
                "done",
                "answer",
            ),
        ),
    )
    return Protocol(
        protocol_id=protocol_id,
        capability_tags=frozenset({"query"}),
        schemas={s.schema_id: s for s in (_ask_schema(), answer, *accepted)},
        roles={"asker": asker, "server": server},
    )


def rewind_registry() -> dict[str, Protocol]:
    """Two protocols whose servers share their method names.

    Both servers ``take`` the same ask and then ``answer`` it: ``rw_a``
    with a tell, ``rw_b`` with an inform, so the two answers differ in
    structure.  ``rw_a``'s asker accepts either answer.  When a
    sequential responder enacting both servers has its first answer
    rejected, the replacement retraces the ``take`` record, so the
    recovery rewinds to the middle of the journal instead of restarting.
    """
    tell = MessageSchema("tell", "tell", {"a": "?string"})
    inform = MessageSchema("inform", "inform", {"n": "?string"})
    return {
        "rw_a": _rewind_protocol("rw_a", tell, (tell, inform)),
        "rw_b": _rewind_protocol("rw_b", inform, (inform,)),
    }


def rewind_runtime(seed: int) -> SimRuntime:
    """Task ``t``: asker ``q`` over ``rw_a`` against a sequential
    responder ``c`` enacting both servers of :func:`rewind_registry`,
    with the first answer garbled in transit."""
    registry = rewind_registry()
    task = TaskDescription(
        task_id="t",
        initiator="q",
        required_capabilities=frozenset({"query"}),
        participants={"rw_a": ("c",)},
    )
    rt = SimRuntime(seed=seed)
    rt.inject_fault(FaultSpec(conversation="t/*", ordinal=2, op="corrupt_structure"))
    rt.register(IndividualInitiator("q", task, RoleRef("rw_a", "asker"), registry))
    servers = InteractionModel({protocol_id: frozenset({"server"}) for protocol_id in registry})
    rt.register(SequentialResponder("c", servers.participant_refs(registry), registry))
    return rt


# ---------------------------------------------------------------------------
# Multi-task scenario documents
# ---------------------------------------------------------------------------

_ATTR_PROTOCOLS = ("attr_digest", "attr_lookup", "attr_probe", "attr_query")
_ATTRIBUTES = ("modified", "created", "author", "title")
_CONTENT_PATHS = (("value",), ("attribute",), ("document",))
_STRUCTURE_FIELDS = ("performative", "language", "shape")


def individual_scenario(rng: Random, mode: str, n_tasks: int, max_faults: int = 1) -> dict:
    """Attribute-query tasks, each with its own initiator ``q<i>``,
    participant ``c<i>`` and 1..max_faults faults on ``t<i>/*``."""
    agents, tasks, faults = [], [], []
    for i in range(n_tasks):
        servers = rng.sample(_ATTR_PROTOCOLS[:3], rng.randint(0, 3)) + ["attr_query"]
        agents.append({"id": f"q{i}", "enacts": {"attr_query": ["querier"]}})
        agents.append({"id": f"c{i}", "enacts": {p: ["server"] for p in sorted(servers)}})
        tasks.append({
            "id": f"t{i}",
            "initiator": f"q{i}",
            "capabilities": ["attribute-retrieval"],
            "participants": {"attr_query": [f"c{i}"]},
            "constraints": {"contents": {"ask": {
                "attribute": rng.choice(_ATTRIBUTES), "document": f"d{i}",
            }}},
        })
        for _ in range(rng.randint(1, max_faults)):
            fault = {"conversation": f"t{i}/*", "ordinal": rng.randint(1, 4)}
            if rng.random() < 0.5:
                fault.update(op="corrupt_structure", field=rng.choice(_STRUCTURE_FIELDS))
            else:
                fault.update(op="corrupt_content", path=list(rng.choice(_CONTENT_PATHS)))
            faults.append(fault)
    return {
        "scenario_id": f"{mode}_{n_tasks}",
        "seed": rng.randrange(1000),
        "selection_mode": mode,
        "protocols": list(_ATTR_PROTOCOLS),
        "agents": agents,
        "tasks": tasks,
        "faults": faults,
    }


def joint_scenario(rng: Random, n_tasks: int, n_agents: int) -> dict:
    """Document-query tasks over a shared pool of repliers, some silent
    (so initiators wait out their deadline wakes) and some unwilling."""
    pool = []
    for j in range(n_agents):
        entry = {"id": f"d{j}", "enacts": {"ips": ["replier"], "request": ["replier"]}}
        draw = rng.random()
        if draw < 0.2:
            entry["behavior"] = "silent"
        elif draw < 0.4:
            entry["willing"] = False
        pool.append(entry)
    agents, tasks = list(pool), []
    for k in range(n_tasks):
        agents.append({"id": f"i{k}", "enacts": {"ips": ["asker"], "request": ["asker"]}})
        tasks.append({
            "id": f"t{k}",
            "initiator": f"i{k}",
            "capabilities": ["document-query"],
            "participants": {
                protocol: sorted(a["id"] for a in rng.sample(pool, rng.randint(1, 4)))
                for protocol in ("ips", "request")
            },
        })
    return {
        "scenario_id": f"joint_{n_tasks}",
        "seed": rng.randrange(1000),
        "selection_mode": "joint",
        "protocols": ["ips", "request"],
        "agents": agents,
        "tasks": tasks,
    }


#: the three joint cases: capability, participant roles, initiator roles
JOINT_CASES = (
    ("contracting", {"cnp": ["contractor"], "icnp": ["contractor"]},
     {"cnp": ["manager"], "icnp": ["manager"]}),
    ("document-query", {"ips": ["replier"], "request": ["replier"]},
     {"ips": ["asker"], "request": ["asker"]}),
    ("brokering", {"auction": ["buyer", "manager", "seller"]}, {"auction": ["opener"]}),
)


def joint_fanout_scenario(rng: Random, n_tasks: int, n_agents: int, fanout: int) -> dict:
    """Joint tasks rotating through contracting, document query and an
    auction, each broadcast to ``fanout`` agents of a shared pool.  Pool
    members draw their models from twelve variants (icnp or not, one or
    two auction roles), so many of them share a model."""
    pool = []
    for j in range(n_agents):
        enacts = {"cnp": ["contractor"], "ips": ["replier"], "request": ["replier"]}
        if rng.random() < 0.5:
            enacts["icnp"] = ["contractor"]
        enacts["auction"] = sorted(rng.sample(["buyer", "manager", "seller"], rng.randint(1, 2)))
        entry = {"id": f"p{j}", "enacts": enacts}
        if rng.random() < 0.1:
            entry["willing"] = False
        pool.append(entry)
    agents, tasks = list(pool), []
    for k in range(n_tasks):
        capability, roles, initiator_roles = JOINT_CASES[k % len(JOINT_CASES)]
        agents.append({"id": f"i{k}", "enacts": initiator_roles})
        chosen = rng.sample(pool, fanout)
        tasks.append({
            "id": f"t{k}",
            "initiator": f"i{k}",
            "capabilities": [capability],
            "participants": {
                protocol: [a["id"] for a in chosen if protocol in a["enacts"]]
                for protocol in roles
            },
        })
    return {
        "scenario_id": f"joint_fanout_{n_tasks}",
        "seed": rng.randrange(1000),
        "selection_mode": "joint",
        "protocols": ["auction", "cnp", "icnp", "ips", "request"],
        "agents": agents,
        "tasks": tasks,
    }


#: the bundled scenarios, each with a golden trace under tests/data/
BUNDLED = (
    "t1_joint",
    "t1_joint_refusal",
    "t2_sequential_fault",
    "t2_mixed_fault",
    "cnp_largest_set",
    "auction_tree",
)


def sample_scenarios(family: str) -> list[Scenario]:
    """The bundled scenarios (``family`` "bundled"), or 50 seeded random
    ones of a selection mode: joint, or an individual mode with up to
    three faults per task."""
    if family == "bundled":
        return [parse_scenario(name) for name in BUNDLED]
    if family == "joint":
        docs = [joint_scenario(Random(seed), 6, 12) for seed in range(50)]
    else:
        docs = [individual_scenario(Random(seed), family, 8, max_faults=3) for seed in range(50)]
    return [scenario_from_dict(doc) for doc in docs]


def record_offer_reads(monkeypatch) -> tuple[list[tuple[str, str, int]], Callable[[], int]]:
    """Record each offer a joint initiator reads, as (initiator,
    performative, id of the content) of the message it handled; return
    the records and a count of the roles parsed that are still alive.

    Reading an offer parses its roles, so a message whose handling
    parsed a role (``RoleRef.parse`` as the initiators look it up) is one
    read; an offer of no role parses nothing and is not recorded.  Each
    role parsed is a ``RoleRef`` subclass, equal to the ``RoleRef`` it
    stands for, that counts itself out when it is freed; a role the
    initiators build rather than parse counts neither way.
    """
    reads: list[tuple[str, str, int]] = []
    made, freed = [0], [0]

    class CountedRef(RoleRef):
        @classmethod
        def parse(cls, text: str) -> RoleRef:
            made[0] += 1
            ref = cls(*RoleRef.parse(text))
            ref.parsed = True
            return ref

        def __del__(self) -> None:
            freed[0] += self.__dict__.get("parsed", False)

    handle = parley.agents.JointInitiator.on_message

    def tracked(initiator, rt, msg):
        before = made[0]
        handle(initiator, rt, msg)
        if made[0] > before:
            reads.append((initiator.name, msg.performative, id(msg.content)))

    monkeypatch.setattr(parley.agents, "RoleRef", CountedRef)
    monkeypatch.setattr(parley.agents.JointInitiator, "on_message", tracked)
    return reads, lambda: made[0] - freed[0]
