"""Protocol documents: classification, validation, loading."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parley.cli import main as cli_main
from parley.errors import ParseError
from parley.model import (
    CONTROL_PERFORMATIVES,
    MANY,
    RESERVED_PERFORMATIVES,
    SELECTION_PERFORMATIVES,
    Action,
    InteractionModel,
    MessageSchema,
    Message,
    Protocol,
    ProtocolCategory,
    RoleKind,
    RoleRef,
    RoleStateMachine,
    TaskDescription,
    Transition,
    Trigger,
    Violation,
    classify_protocol,
    load_protocol,
    match_task_to_protocols,
    protocol_from_dict,
    validate_protocol,
)

from parley.fixtures import ROOT as FIXTURES
from parley.individual import method_graph
from parley.machine import weak_schema_ids
from parley.scenario import load_registry

from .generators import patterns_and_contents
from .helpers import one_n_protocol, one_one_n_protocol, one_one_protocol
from .oracles import oracle_schema_accepts, oracle_transitions_from


def test_role_ref_renders_and_parses():
    ref = RoleRef("ips", "replier")
    assert str(ref) == "ips:replier"
    assert RoleRef.parse("ips:replier") == ref
    for bad in ("noseparator", ":role", "proto:"):
        with pytest.raises(ParseError):
            RoleRef.parse(bad)


def test_performative_families_are_disjoint():
    assert not SELECTION_PERFORMATIVES & CONTROL_PERFORMATIVES
    assert RESERVED_PERFORMATIVES == SELECTION_PERFORMATIVES | CONTROL_PERFORMATIVES
    assert "ready-to-select" in SELECTION_PERFORMATIVES
    assert "recover-at" in CONTROL_PERFORMATIVES
    assert "ask-one" not in RESERVED_PERFORMATIVES


class TestClassification:
    def test_three_shapes(self):
        assert classify_protocol(one_one_protocol("p")) is ProtocolCategory.ONE_ONE
        assert classify_protocol(one_one_n_protocol("p")) is ProtocolCategory.ONE_ONE_N
        one_n = one_n_protocol("p", {"x": None, "y": None})
        assert classify_protocol(one_n) is ProtocolCategory.ONE_N

    def test_mixed_traits_rejected(self):
        base = one_n_protocol("p", {"x": None, "y": None})
        crowd = base.roles["y"]
        mixed = Protocol(
            protocol_id="p",
            capability_tags=base.capability_tags,
            schemas=base.schemas,
            roles={
                **base.roles,
                "y": RoleStateMachine(
                    role_id="y",
                    kind=crowd.kind,
                    multiplicity=MANY,
                    states=crowd.states,
                    initial_state=crowd.initial_state,
                    terminal_states=crowd.terminal_states,
                    transitions=crowd.transitions,
                ),
            },
        )
        assert classify_protocol(mixed) is None
        detail = "several participant roles with non-unit multiplicity mix category traits"
        assert validate_protocol(mixed) == [Violation("composite", "p", detail)]

    def test_missing_initiator_rejected(self):
        base = one_one_protocol("p")
        only_participant = Protocol(
            protocol_id="p",
            capability_tags=base.capability_tags,
            schemas=base.schemas,
            roles={"replier": base.roles["replier"]},
        )
        assert validate_protocol(only_participant) == [
            Violation("initiator-count", "p", "found 0 initiator roles")
        ]

    def test_missing_participant_rejected(self):
        base = one_one_protocol("p")
        only_initiator = base._replace(roles={"asker": base.roles["asker"]})
        detail = "needs exactly one initiator and at least one participant role"
        assert validate_protocol(only_initiator) == [Violation("composite", "p", detail)]

    @pytest.mark.parametrize("multiplicity", [0, 2, "N"])
    def test_initiator_multiplicity_reported_once(self, multiplicity):
        doc = json.loads((FIXTURES / "protocols" / "ips.json").read_text(encoding="utf-8"))
        for role in doc["roles"]:
            if role["kind"] == "initiator":
                role["multiplicity"] = multiplicity
        assert validate_protocol(protocol_from_dict(doc)) == [
            Violation("bad-multiplicity", "ips:asker", "initiator roles have multiplicity 1")
        ]


class TestValidation:
    def test_builders_produce_clean_protocols(self):
        assert validate_protocol(one_one_protocol("p")) == []
        assert validate_protocol(one_one_n_protocol("p")) == []
        assert validate_protocol(one_n_protocol("p", {"x": None, "y": "x"})) == []

    def test_bundled_protocols_are_clean(self):
        # the JSON files are the only source of the bundled protocols, and
        # loading one skips validate_protocol: this test is where the
        # bundled set is validated and each protocol's category pinned
        registry = load_registry(BUNDLED_PROTOCOLS)
        assert len(registry) == 9
        assert {pid: validate_protocol(p) for pid, p in registry.items()} == {
            pid: [] for pid in registry
        }
        pinned = {
            ProtocolCategory.ONE_ONE: (
                "ips", "request", "attr_digest", "attr_lookup", "attr_probe", "attr_query"
            ),
            ProtocolCategory.ONE_ONE_N: ("cnp", "icnp"),
            ProtocolCategory.ONE_N: ("auction",),
        }
        assert {pid: classify_protocol(p) for pid, p in registry.items()} == {
            pid: category for category, pids in pinned.items() for pid in pids
        }

    def test_reserved_performative_flagged(self):
        base = one_one_protocol("p")
        poisoned = Protocol(
            protocol_id="p",
            capability_tags=base.capability_tags,
            schemas={
                **base.schemas,
                "meta": MessageSchema(
                    schema_id="meta",
                    performative="stop-selection",
                    content_pattern={},
                ),
            },
            roles=base.roles,
        )
        codes = {v.code for v in validate_protocol(poisoned)}
        assert "reserved-performative" in codes

    def test_dangling_schema_and_state_refs_flagged(self):
        machine = RoleStateMachine(
            role_id="r",
            kind=RoleKind.INITIATOR,
            multiplicity=1,
            states=frozenset({"s0", "lonely", "done"}),
            initial_state="s0",
            terminal_states=frozenset({"done"}),
            transitions=(
                Transition(
                    "s0",
                    Trigger(kind="internal", variable="task"),
                    Action(kind="send", schema_id="ghost"),
                    "done",
                    "m1",
                ),
                Transition(
                    "done",
                    Trigger(kind="internal", variable="x"),
                    Action(kind="none"),
                    "done",
                    "m2",
                ),
            ),
        )
        protocol = Protocol(
            protocol_id="p",
            capability_tags=frozenset(),
            schemas={},
            roles={"r": machine},
        )
        codes = {v.code for v in validate_protocol(protocol)}
        assert {"bad-schema-ref", "terminal-outgoing", "unreachable-state"} <= codes

    def test_first_transition_direction_checked(self):
        base = one_one_protocol("p")
        asker = base.roles["asker"]
        backwards = RoleStateMachine(
            role_id="asker",
            kind=RoleKind.INITIATOR,
            multiplicity=1,
            states=asker.states,
            initial_state=asker.initial_state,
            terminal_states=asker.terminal_states,
            transitions=(
                Transition(
                    "s0",
                    Trigger(kind="receive", schema_id="reply"),
                    Action(kind="none"),
                    "s1",
                    "m1",
                ),
            )
            + asker.transitions[1:],
        )
        protocol = Protocol(
            protocol_id="p",
            capability_tags=base.capability_tags,
            schemas=base.schemas,
            roles={**base.roles, "asker": backwards},
        )
        codes = {v.code for v in validate_protocol(protocol)}
        assert "bad-first-action" in codes

    @staticmethod
    def _auction_with_buyer_father(father):
        doc = json.loads((FIXTURES / "protocols" / "auction.json").read_text(encoding="utf-8"))
        (buyer,) = [role for role in doc["roles"] if role["role_id"] == "buyer"]
        buyer["father"] = father
        return doc

    def test_cyclic_father_relation_refused_when_it_loads(self, tmp_path):
        # buyer -> manager -> seller -> buyer: no role is fed by the initiator
        doc = self._auction_with_buyer_father("seller")
        assert validate_protocol(protocol_from_dict(doc)) == [
            Violation("bad-father", "auction", "father relation is not a forest")
        ]
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match="invalid protocol: bad-father"):
            load_protocol(path)
        assert cli_main(["dump-protocol", str(path)]) == 2

    def test_dangling_father_reported_once(self):
        doc = self._auction_with_buyer_father("ghost")
        assert validate_protocol(protocol_from_dict(doc)) == [
            Violation("bad-father", "auction:buyer", "father 'ghost' is not a role")
        ]

    def test_a_role_starting_with_two_methods_is_refused_when_it_loads(self, tmp_path, capsys):
        # a recovery retraces a journal from the role's one initial method:
        # method_graph reads it, and this check, not method_graph, refuses
        # a role with two
        doc = json.loads((FIXTURES / "protocols" / "attr_lookup.json").read_text(encoding="utf-8"))
        (server,) = [role for role in doc["roles"] if role["role_id"] == "server"]
        take = server["transitions"][0]
        assert take["from"] == server["initial"]
        assert method_graph(protocol_from_dict(doc).roles["server"]).initial == "al-take"
        server["transitions"].append({**take, "method": "al-take-again"})
        detail = "initial state runs 2 methods: al-take, al-take-again"
        assert validate_protocol(protocol_from_dict(doc)) == [
            Violation("initial-method", "attr_lookup:server", detail)
        ]
        (tmp_path / "attr_lookup.json").write_text(json.dumps(doc), encoding="utf-8")
        scenario = json.loads(
            (FIXTURES / "scenarios" / "t2_sequential_fault.json").read_text(encoding="utf-8")
        )
        scenario["protocols"] = [
            "attr_lookup.json" if name == "attr_lookup" else name for name in scenario["protocols"]
        ]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        for command in ("validate", "run"):
            assert cli_main([command, str(path)]) == 2
            assert capsys.readouterr().err == (
                f"error: {tmp_path / 'attr_lookup.json'}: invalid protocol: "
                f"initial-method [attr_lookup:server]: {detail}\n"
            )

    def test_a_fault_two_transitions_repeat_is_reported_once(self):
        # both first transitions of the twins fire on no message: one
        # bad-first-trigger, however many transitions repeat it
        base = one_one_protocol("p")
        twins = RoleStateMachine(
            role_id="replier",
            kind=RoleKind.PARTICIPANT,
            multiplicity=1,
            states=frozenset({"s0", "s1"}),
            initial_state="s0",
            terminal_states=frozenset({"s1"}),
            transitions=tuple(
                Transition("s0", Trigger(kind="internal", variable=v), Action(kind="none"), "s1", m)
                for v, m in (("a", "left"), ("b", "right"))
            ),
        )
        assert validate_protocol(base._replace(roles={**base.roles, "replier": twins})) == [
            Violation("initial-method", "p:replier", "initial state runs 2 methods: left, right"),
            Violation("bad-first-trigger", "p:replier", "participant roles start by receiving"),
        ]


def test_schema_structure_vs_content():
    schema = MessageSchema(
        schema_id="tell", performative="tell", content_pattern={"value": "?number"}
    )

    def msg(content, performative="tell", language="kv"):
        return Message(
            performative=performative,
            content=content,
            language=language,
            ontology="core",
            sender="a",
            receiver="b",
            conversation_id="c",
        )

    assert schema.content_matches(msg({"value": 3}))
    assert schema.structure_matches(msg({"value": "three"}))
    assert not schema.content_matches(msg({"value": "three"}))
    assert not schema.structure_matches(msg({"other": 3}))
    assert not schema.structure_matches(msg({"value": 3}, performative="ask-one"))
    assert not schema.structure_matches(msg({"value": 3}, language="prolog"))


def test_task_matching_filters_and_sorts():
    registry = {
        "zeta": one_one_protocol("zeta", tags=("query", "extra")),
        "alpha": one_one_protocol("alpha", tags=("query",)),
        "other": one_one_protocol("other", tags=("archive",)),
        "unenacted": one_one_protocol("unenacted", tags=("query",)),
    }
    model = InteractionModel(
        {
            "zeta": frozenset({"asker"}),
            "alpha": frozenset({"asker"}),
            "other": frozenset({"asker"}),
            "unenacted": frozenset({"replier"}),  # can answer but not drive
        }
    )
    task = TaskDescription(
        task_id="t", initiator="q1", required_capabilities=frozenset({"query"}), participants={}
    )
    found = match_task_to_protocols(task, model, registry)
    assert [(p.protocol_id, role) for p, role in found] == [
        ("alpha", "asker"),
        ("zeta", "asker"),
    ]


def test_interaction_model_participant_refs_are_sorted():
    registry = {"ips": one_one_protocol("ips"), "request": one_one_protocol("request")}
    model = InteractionModel(
        {"request": frozenset({"replier"}), "ips": frozenset({"replier", "asker"})}
    )
    assert model.participant_refs(registry) == (
        RoleRef("ips", "replier"),
        RoleRef("request", "replier"),
    )


#: ``one_one_protocol("p1")`` of ``tests/helpers.py`` as a document; one
#: schema leaves ``language`` and ``ontology`` to their defaults, and one
#: role leaves ``father`` out
ONE_ONE_DOC = """
{
  "protocol_id": "p1",
  "capability_tags": ["query"],
  "schemas": [
    {"schema_id": "ask", "performative": "ask-one", "content_pattern": {"q": "?string"}},
    {"schema_id": "reply", "performative": "tell", "content_pattern": {"a": "?string"},
     "language": "kv", "ontology": "core"}
  ],
  "roles": [
    {"role_id": "asker", "kind": "initiator", "multiplicity": 1,
     "states": ["s0", "s1", "done"], "initial": "s0", "terminals": ["done"],
     "transitions": [
       {"from": "s0", "trigger": {"kind": "internal", "variable": "task"},
        "action": {"kind": "send", "schema": "ask"}, "to": "s1", "method": "p1-send-ask"},
       {"from": "s1", "trigger": {"kind": "receive", "schema": "reply"},
        "action": {"kind": "none"}, "to": "done", "method": "p1-take-reply"}
     ]},
    {"role_id": "replier", "kind": "participant", "multiplicity": 1, "father": null,
     "states": ["p0", "done"], "initial": "p0", "terminals": ["done"],
     "transitions": [
       {"from": "p0", "trigger": {"kind": "receive", "schema": "ask"},
        "action": {"kind": "send", "schema": "reply"}, "to": "done", "method": "p1-answer"}
     ]}
  ]
}
"""

#: ``one_n_protocol("p3", {"x": None, "y": "x"})`` as a document
ONE_N_DOC = """
{
  "protocol_id": "p3",
  "capability_tags": ["ceremony"],
  "schemas": [
    {"schema_id": "kick", "performative": "inform", "content_pattern": {"go": "?string"}}
  ],
  "roles": [
    {"role_id": "chair", "kind": "initiator", "multiplicity": 1,
     "states": ["s0", "done"], "initial": "s0", "terminals": ["done"],
     "transitions": [
       {"from": "s0", "trigger": {"kind": "internal", "variable": "task"},
        "action": {"kind": "send", "schema": "kick"}, "to": "done", "method": "p3-kickoff"}
     ]},
    {"role_id": "x", "kind": "participant", "multiplicity": 1,
     "states": ["p0", "done"], "initial": "p0", "terminals": ["done"],
     "transitions": [
       {"from": "p0", "trigger": {"kind": "receive", "schema": "kick"},
        "action": {"kind": "none"}, "to": "done", "method": "p3-x-join"}
     ]},
    {"role_id": "y", "kind": "participant", "multiplicity": 1, "father": "x",
     "states": ["p0", "done"], "initial": "p0", "terminals": ["done"],
     "transitions": [
       {"from": "p0", "trigger": {"kind": "receive", "schema": "kick"},
        "action": {"kind": "none"}, "to": "done", "method": "p3-y-join"}
     ]}
  ]
}
"""


class TestSerde:
    def test_literal_documents_load_as_built(self):
        assert protocol_from_dict(json.loads(ONE_ONE_DOC)) == one_one_protocol("p1")
        assert protocol_from_dict(json.loads(ONE_N_DOC)) == one_n_protocol(
            "p3", {"x": None, "y": "x"}
        )
        many = json.loads(ONE_ONE_DOC)
        many["capability_tags"] = ["tender"]
        many["roles"][1].update(role_id="bidder", multiplicity=MANY)
        assert protocol_from_dict(many) == one_one_n_protocol("p1")

    def test_omega_carried_opaquely(self):
        raw = json.loads(ONE_ONE_DOC)
        assert protocol_from_dict(raw).omega is None
        raw["omega"] = {"annotation": ["anything", 1]}
        assert protocol_from_dict(raw).omega == {"annotation": ["anything", 1]}

    def test_malformed_documents_raise_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="^top level: missing"):
            protocol_from_dict({"protocol_id": "p"})  # no schemas/roles
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_protocol(bad)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "disk.json"
        path.write_text(ONE_ONE_DOC, encoding="utf-8")
        assert load_protocol(path) == one_one_protocol("p1")


# ---------------------------------------------------------------------------
# Per-machine index and derived data
# ---------------------------------------------------------------------------

BUNDLED_PROTOCOLS = sorted(p.stem for p in (FIXTURES / "protocols").glob("*.json"))


def fixture_machines() -> list[RoleStateMachine]:
    protocols = list(load_registry(BUNDLED_PROTOCOLS).values()) + [
        one_one_protocol("p1"),
        one_one_n_protocol("p2"),
        one_n_protocol("p3", {"x": None, "y": "x"}),
    ]
    return [m for protocol in protocols for m in protocol.roles.values()]


def plain(transitions) -> list[tuple[str, str, str]]:
    return [(t.from_state, t.to_state, t.method) for t in transitions]


def test_indexed_transitions_match_the_linear_scan_on_every_fixture_state():
    machines = fixture_machines()
    assert len(machines) >= 20
    for machine in machines:
        everything = plain(machine.transitions)
        for state in sorted(machine.states) + ["no-such-state"]:
            got = machine.transitions_from(state)
            assert isinstance(got, tuple)
            assert plain(got) == oracle_transitions_from(everything, state)


_STATES = ("s0", "s1", "s2", "s3")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_STATES), st.sampled_from(_STATES)), max_size=12))
def test_indexed_transitions_match_the_linear_scan_on_random_machines(edges):
    transitions = tuple(
        Transition(a, Trigger(kind="internal", variable="v"), Action(kind="none"), b, f"m{i}")
        for i, (a, b) in enumerate(edges)
    )
    machine = RoleStateMachine(
        role_id="r",
        kind=RoleKind.PARTICIPANT,
        multiplicity=1,
        states=frozenset(_STATES),
        initial_state="s0",
        terminal_states=frozenset(),
        transitions=transitions,
    )
    for state in _STATES:
        assert plain(machine.transitions_from(state)) == oracle_transitions_from(
            plain(transitions), state
        )


def test_index_and_derived_data_leave_equality_and_hash_alone():
    fresh = one_one_protocol("p").roles["replier"]
    used = one_one_protocol("p").roles["replier"]
    used.transitions_from("p0")
    weak_schema_ids(used)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_derived_data_is_built_once_per_machine():
    builds = []

    def build(machine):
        builds.append(machine.role_id)
        return len(machine.transitions)

    first = one_one_protocol("p").roles["replier"]
    second = one_one_protocol("p").roles["replier"]
    assert first.derived(build) == first.derived(build) == 1
    assert second.derived(build) == 1
    assert builds == ["replier", "replier"]  # once per machine, not per call


# ---------------------------------------------------------------------------
# Schema matching: one walk of the content tree
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    patterns_and_contents(),
    st.sampled_from(("tell", "ask-one")),
    st.sampled_from(("kv", "prolog")),
)
def test_schema_content_match_agrees_with_the_two_walk_oracle(pair, performative, language):
    pattern, content = pair
    schema = MessageSchema("s", "tell", pattern)
    message = Message(performative, content, language, "core", "a", "b", "c")
    expected = oracle_schema_accepts(
        {"performative": "tell", "language": "kv", "ontology": "core", "pattern": pattern},
        {"performative": performative, "language": language, "ontology": "core",
         "content": content},
    )
    assert schema.content_matches(message) == expected
    if expected:
        assert schema.structure_matches(message)
