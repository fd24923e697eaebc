"""Candidate matrix exploration, arbitration rules, and the pairwise and
broadcast rounds on the bus."""

from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parley.agents import JointInitiator, SelectionParticipant, answer_table
from parley.errors import ProtocolViolationError
from parley.fixtures import ROOT as FIXTURES
from parley.joint import (
    AGENT_ORIENTED,
    PROTOCOL_ORIENTED,
    CandidateMatrix,
    assign_roles_1_n,
    build_candidate_matrix,
    next_vector,
    offered_roles,
    select_largest_set,
)
from parley.model import (
    CALL_FOR_COLLABORATION,
    NOTIFY_ASSIGNMENT,
    READY_TO_SELECT,
    STOP_SELECTION,
    UNABLE_TO_SELECT,
    InteractionModel,
    Message,
    ProtocolCategory,
    RoleRef,
    TaskDescription,
    Violation,
    classify_protocol,
    father_order,
    load_protocol,
    match_task_to_protocols,
    validate_protocol,
)
from parley.runtime import WAKE, AgentBase, SimRuntime
from parley.scenario import build_runtime, run_scenario, scenario_from_dict

from .generators import AGENT_POOL, forest_instances, largest_set_instances
from .helpers import one_n_protocol, one_one_n_protocol, one_one_protocol, sample_scenarios
from .oracles import (
    oracle_assign_roles,
    oracle_assignment_valid,
    oracle_injective_exists,
    oracle_largest_set,
)

# the canonical two-protocol / seven-agent incidence exercised throughout
INCIDENCES = {
    "ips": ("d1", "d2", "d4", "d5", "d7"),
    "request": ("d3", "d4", "d5", "d7"),
}

TASK = TaskDescription(
    task_id="t1",
    initiator="q1",
    required_capabilities=frozenset({"query"}),
    participants=INCIDENCES,
)


def canonical_matrix() -> CandidateMatrix:
    protocols = [(one_one_protocol(pid), "asker") for pid in sorted(INCIDENCES)]
    return build_candidate_matrix(TASK, protocols)


def _msg(performative: str, content: dict, sender: str = "q1") -> Message:
    return Message(
        performative=performative,
        content=content,
        language="kv",
        ontology="core",
        sender=sender,
        receiver="d1",
        conversation_id="t1/d1",
    )


# ---------------------------------------------------------------------------
# Matrix and exploration order
# ---------------------------------------------------------------------------


class TestMatrix:
    def test_rows_and_columns(self):
        matrix = canonical_matrix()
        assert matrix.protocols == ("ips", "request")
        assert matrix.agents == ("d1", "d2", "d3", "d4", "d5", "d7")
        assert matrix.rows["ips"] == ("d1", "d2", "d4", "d5", "d7")
        assert matrix.rows["request"] == ("d3", "d4", "d5", "d7")
        assert matrix.columns["d4"] == ("ips", "request")
        assert matrix.columns["d3"] == ("request",)

    def test_densest_row_explored_first(self):
        matrix = canonical_matrix()
        assert next_vector(matrix, PROTOCOL_ORIENTED, frozenset()) == "ips"
        assert next_vector(matrix, PROTOCOL_ORIENTED, {"ips"}) == "request"
        assert next_vector(matrix, PROTOCOL_ORIENTED, {"ips", "request"}) is None

    def test_agent_oriented_ties_break_lexicographically(self):
        matrix = canonical_matrix()
        # d4, d5, d7 each sit in both rows; d4 is the smallest label
        assert next_vector(matrix, AGENT_ORIENTED, frozenset()) == "d4"
        assert next_vector(matrix, AGENT_ORIENTED, {"d4"}) == "d5"

    def test_empty_vectors_never_selected(self):
        matrix = build_candidate_matrix(
            TASK._replace(participants={"ips": ("d1",)}),
            [(one_one_protocol("bare"), "asker"), (one_one_protocol("ips"), "asker")],
        )
        assert matrix.rows["bare"] == ()
        assert next_vector(matrix, PROTOCOL_ORIENTED, frozenset()) == "ips"
        assert next_vector(matrix, PROTOCOL_ORIENTED, {"ips"}) is None


# ---------------------------------------------------------------------------
# Largest candidate set
# ---------------------------------------------------------------------------


def payload(*labels: str) -> tuple[RoleRef, ...]:
    """The offer of a ready-to-select listing ``labels``."""
    return tuple(RoleRef.parse(lbl) for lbl in labels)


def as_plain(replies: dict[str, tuple[RoleRef, ...]]) -> dict[str, list[str]]:
    return {a: [str(r) for r in roles] for a, roles in replies.items()}


class TestLargestSet:
    def test_partial_overlap_prefers_first_saved_set(self):
        # a2 backs both roles; neither side has more exclusive backers,
        # and no later group breaks the tie, so the smaller label wins
        # with its full backing.
        replies = {
            "a1": payload("many:rA"),
            "a2": payload("many:rA", "many:rB"),
            "a3": payload("many:rB"),
        }
        expected = (RoleRef("many", "rA"), frozenset({"a1", "a2"}))
        plain = oracle_largest_set(as_plain(replies), {"many"})
        assert plain == ("many:rA", frozenset({"a1", "a2"}))
        assert select_largest_set(replies, {"many"}) == expected

    def test_unanimous_role_wins_outright(self):
        replies = {
            "a1": payload("many:rB", "many:rA"),
            "a2": payload("many:rA"),
            "a3": payload("many:rA", "many:rC"),
        }
        got = select_largest_set(replies, {"many"})
        assert got == (RoleRef("many", "rA"), frozenset({"a1", "a2", "a3"}))

    def test_exclusive_backers_decide_within_a_group(self):
        # two equal-size sets always tie on exclusives (|A-B| = |B-A|
        # when |A| = |B|), so a decisive group needs three roles
        replies = {
            "a1": payload("many:rA"),
            "a2": payload("many:rA"),
            "a3": payload("many:rB"),
            "a4": payload("many:rB", "many:rC"),
            "a5": payload("many:rC"),
        }
        got = select_largest_set(replies, {"many"})
        assert got == (RoleRef("many", "rA"), frozenset({"a1", "a2"}))

    def test_trade_can_move_to_the_larger_label(self):
        replies = {
            "a1": payload("many:rA"),
            "a2": payload("many:rA", "many:rB"),
            "a3": payload("many:rA", "many:rB"),
            "a4": payload("many:rB", "many:rC"),
        }
        # {rA, rB} park as an exclusive tie; the size-1 group decides
        # rC = {a4}, and rB is the parked set overlapping it.
        got = select_largest_set(replies, {"many"})
        assert got == (RoleRef("many", "rB"), frozenset({"a2", "a3", "a4"}))

    def test_saved_group_traded_against_later_winner(self):
        replies = {
            "a1": payload("many:rA", "many:rC"),
            "a2": payload("many:rA", "many:rB"),
            "a3": payload("many:rB"),
        }
        # size-2 group {rA, rB} is an exclusive tie and gets parked;
        # size-1 group decides rC = {a1}; rA overlaps {a1} more than rB.
        got = select_largest_set(replies, {"many"})
        assert got == (RoleRef("many", "rA"), frozenset({"a1", "a2"}))

    def test_unidentified_protocols_filtered_out(self):
        replies = {
            "a1": payload("ghost:rZ", "many:rA"),
            "a2": payload("ghost:rZ", "many:rA"),
        }
        got = select_largest_set(replies, {"many"})
        assert got == (RoleRef("many", "rA"), frozenset({"a1", "a2"}))

    def test_nothing_selectable(self):
        assert select_largest_set({}, {"many"}) is None
        replies = {"a1": payload("ghost:rZ")}
        assert select_largest_set(replies, {"many"}) is None

    @settings(max_examples=300)
    @given(largest_set_instances())
    # every size group undecided: the highest one's smallest label wins
    @example(({"a1": ["many:rA"], "a2": ["many:rB"]}, {"many"}))
    @example(({"a1": ["many:rA", "many:rB"], "a2": ["many:rB", "many:rC"],
               "a3": ["many:rC", "many:rA"], "a4": ["many:rD"], "a5": ["many:rE"]}, {"many"}))
    def test_agrees_with_oracle(self, instance):
        plain_replies, identified = instance
        replies = {a: payload(*labels) for a, labels in plain_replies.items()}
        expected = oracle_largest_set(plain_replies, identified)
        got = select_largest_set(replies, identified)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert (str(got[0]), got[1]) == expected


# ---------------------------------------------------------------------------
# Father forest and role allocation
# ---------------------------------------------------------------------------


class TestFatherOrder:
    def test_chain_walks_from_the_top(self):
        protocol = one_n_protocol(
            "auction", {"seller": "manager", "manager": "buyer", "buyer": None}
        )
        assert father_order(protocol) == ["buyer", "manager", "seller"]

    def test_top_level_roles_sorted_then_children(self):
        protocol = one_n_protocol("cer", {"x": None, "y": "x", "z": None})
        assert father_order(protocol) == ["x", "z", "y"]

    def test_father_may_name_the_initiator(self):
        protocol = one_n_protocol("cer", {"x": "chair", "y": "x"})
        assert father_order(protocol) == ["x", "y"]

    def test_cycle_has_no_order_and_is_reported_once(self):
        protocol = one_n_protocol("cer", {"x": "y", "y": "x"})
        assert father_order(protocol) is None
        assert validate_protocol(protocol) == [
            Violation("bad-father", "cer", "father relation is not a forest")
        ]

    def test_unknown_father_has_no_order_and_is_reported_once(self):
        protocol = one_n_protocol("cer", {"x": "nobody"})
        assert father_order(protocol) is None
        assert validate_protocol(protocol) == [
            Violation("bad-father", "cer:x", "father 'nobody' is not a role")
        ]

    @given(forest_instances(), st.data())
    def test_order_exists_exactly_when_the_judge_passes_the_fathers(self, instance, data):
        # rewire some fathers of a forest to any role, the initiator or
        # no role at all: cycles and dangling fathers both occur
        fathers, _ = instance
        roles = sorted(fathers)
        rewired = data.draw(
            st.dictionaries(
                st.sampled_from(roles), st.sampled_from([None, "chair", "ghost", *roles])
            )
        )
        protocol = one_n_protocol("cer", {**fathers, **rewired})
        report = validate_protocol(protocol)
        order = father_order(protocol)
        assert (order is None) == any(v.code == "bad-father" for v in report)
        assert len({(v.code, v.subject) for v in report}) == len(report)
        if order is not None:
            assert sorted(order) == roles
            for role in roles:
                father = protocol.roles[role].father
                if father in fathers:
                    assert order.index(father) < order.index(role)


class TestAssignRoles:
    def test_draws_avoid_breaking_injectivity(self):
        # z is drawn first (top of the forest) and a naive draw of a or
        # b would force x and y to collide; every seed must route z to c.
        protocol = one_n_protocol("cer", {"z": None, "x": "z", "y": "z"})
        replies = {
            "a": payload("cer:z", "cer:x", "cer:y"),
            "b": payload("cer:z", "cer:x", "cer:y"),
            "c": payload("cer:z"),
        }
        for seed in range(25):
            got = assign_roles_1_n(replies, protocol, Random(seed))
            assert got is not None
            assert got[RoleRef("cer", "z")] == "c"
            assert len(set(got.values())) == 3

    def test_singleton_rule_cascades(self):
        protocol = one_n_protocol("cer", {"x": None, "y": None, "z": None})
        replies = {
            "a": payload("cer:x", "cer:y", "cer:z"),
            "b": payload("cer:y", "cer:z"),
            "c": payload("cer:z"),
        }
        got = assign_roles_1_n(replies, protocol, Random(0))
        assert got is not None
        assert got == {
            RoleRef("cer", "x"): "a",
            RoleRef("cer", "y"): "b",
            RoleRef("cer", "z"): "c",
        }

    def test_collision_allowed_when_unavoidable(self):
        protocol = one_n_protocol("cer", {"x": None, "y": None})
        replies = {"a": payload("cer:x", "cer:y")}
        got = assign_roles_1_n(replies, protocol, Random(0))
        assert got is not None
        assert got == {
            RoleRef("cer", "x"): "a",
            RoleRef("cer", "y"): "a",
        }

    def test_no_protocol_covered(self):
        protocol = one_n_protocol("cer", {"x": None, "y": None})
        assert assign_roles_1_n({"a": payload("cer:x")}, protocol, Random(0)) is None

    @settings(max_examples=200)
    @given(forest_instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_assignments_valid_and_injective_when_possible(self, instance, seed):
        fathers, plain_replies = instance
        protocol = one_n_protocol("cer", fathers)
        replies = {
            agent: payload(*[f"cer:{r}" for r in roles])
            for agent, roles in plain_replies.items()
        }
        got = assign_roles_1_n(replies, protocol, Random(seed))
        assert got is not None
        candidates = {
            role: {a for a, roles in plain_replies.items() if role in roles}
            for role in fathers
        }
        assignment = {ref.role: agent for ref, agent in got.items()}
        assert oracle_assignment_valid(candidates, assignment)

    def test_same_seed_same_result(self):
        fathers = {"p1": None, "p2": "p1", "p3": None}
        protocol = one_n_protocol("cer", fathers)
        replies = {
            "a1": payload("cer:p1", "cer:p2", "cer:p3"),
            "a2": payload("cer:p1", "cer:p2", "cer:p3"),
            "a3": payload("cer:p2", "cer:p3"),
        }
        first = assign_roles_1_n(replies, protocol, Random(42))
        second = assign_roles_1_n(replies, protocol, Random(42))
        assert first == second


AUCTION = load_protocol("auction")
#: the auction's participant roles, plus a label of a protocol not asked about
AUCTION_LABELS = ("auction:buyer", "auction:manager", "auction:seller", "cnp:contractor")


@st.composite
def auction_replies(draw) -> dict[str, list[str]]:
    """Random candidate sets over the auction fixture, from up to 8 agents
    (the first six share names with the forest instances)."""
    agents = AGENT_POOL + ("a7", "a8")
    replies = {}
    for agent in agents[: draw(st.integers(min_value=1, max_value=len(agents)))]:
        listed = draw(st.lists(st.sampled_from(AUCTION_LABELS), unique=True))
        if listed:
            replies[agent] = listed
    return replies


class TestAssignRolesAgainstOracle:
    """The full result and the draws taken, against the agent-by-agent
    scan of :func:`oracle_assign_roles`, under the same seed."""

    def check(self, protocol, plain_replies, seed):
        replies = {agent: payload(*labels) for agent, labels in plain_replies.items()}
        got_rng, want_rng = Random(seed), Random(seed)
        got = assign_roles_1_n(replies, protocol, got_rng)
        want = oracle_assign_roles(
            protocol.protocol_id, father_order(protocol), plain_replies, want_rng
        )
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert {str(r): a for r, a in got.items()} == want
        assert got_rng.getstate() == want_rng.getstate()

    @settings(max_examples=200, deadline=None)
    @given(auction_replies(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_auction_candidate_sets(self, replies, seed):
        self.check(AUCTION, replies, seed)

    @settings(max_examples=200, deadline=None)
    @given(forest_instances(), auction_replies(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_forests_beside_the_auction(self, instance, auction, seed):
        fathers, forest = instance
        replies = {
            agent: [f"cer:{r}" for r in forest.get(agent, [])] + auction.get(agent, [])
            for agent in sorted(set(forest) | set(auction))
        }
        for protocol in (one_n_protocol("cer", fathers), AUCTION):
            self.check(protocol, replies, seed)


# ---------------------------------------------------------------------------
# Participant side
# ---------------------------------------------------------------------------


def _participant_world():
    registry = {"ips": one_one_protocol("ips"), "request": one_one_protocol("request")}
    model = InteractionModel({"ips": frozenset({"replier"}), "request": frozenset({"replier"})})
    table = frozenset({(RoleRef("ips", "asker"), RoleRef("request", "replier"))})
    return registry, model, table


def participant_bus(willing: bool = True) -> tuple[SimRuntime, SelectionParticipant]:
    """A participant ``d1`` on a bare bus beside a silent ``q1`` that
    only injects messages."""
    registry, model, table = _participant_world()
    rt = SimRuntime(seed=0)
    rt.register(AgentBase("q1"))
    answers = answer_table(model.participant_refs(registry), willing, table, registry, {})
    participant = SelectionParticipant("d1", answers)
    rt.register(participant)
    return rt, participant


def deliver(rt: SimRuntime, performative: str, content: dict) -> list[tuple[str, dict]]:
    """Send one message from q1 to d1; return the replies d1 sent."""
    rt.schedule_send(_msg(performative, content))
    start = len(rt.trace)
    rt.run_until_quiescent()
    return [
        (e.payload["performative"], e.payload["content"])
        for e in rt.trace[start:]
        if e.kind == "send"
    ]


CALL_IPS = {"protocol": "ips", "task": "t1"}


class TestParticipantMeta:
    def test_call_answered_with_offer(self):
        rt, participant = participant_bus()
        replies = deliver(rt, CALL_FOR_COLLABORATION, CALL_IPS)
        offer = (RoleRef("ips", "replier"), RoleRef("request", "replier"))
        assert participant.pending == {"t1/d1": offer}
        assert replies == [(READY_TO_SELECT, {"roles": ["ips:replier", "request:replier"]})]

    def test_compatibility_is_directional(self):
        rt, _ = participant_bus()
        # request's initiator has no pairs pointing anywhere: only the
        # agent's own request role can be offered for a request call.
        replies = deliver(rt, CALL_FOR_COLLABORATION, {"protocol": "request", "task": "t1"})
        assert replies == [(READY_TO_SELECT, {"roles": ["request:replier"]})]

    def test_unwilling_agent_declines(self):
        rt, participant = participant_bus(willing=False)
        replies = deliver(rt, CALL_FOR_COLLABORATION, CALL_IPS)
        assert participant.pending == {}
        assert replies == [(UNABLE_TO_SELECT, {"reason": "unwilling"})]

    def test_malformed_call_declines(self):
        rt, _ = participant_bus()
        # no protocol named, and a protocol the agent's registry lacks
        for content in ({"task": "t1"}, {"protocol": "mystery", "task": "t1"}):
            replies = deliver(rt, CALL_FOR_COLLABORATION, content)
            assert replies == [(UNABLE_TO_SELECT, {"reason": "malformed-call"})]

    def test_assignment_must_match_an_offer(self):
        rt, participant = participant_bus()
        deliver(rt, CALL_FOR_COLLABORATION, CALL_IPS)
        assert deliver(rt, NOTIFY_ASSIGNMENT, {"role": "ips:replier"}) == []
        assert participant.pending == {}  # the accepted assignment ends the offer
        with pytest.raises(ProtocolViolationError):  # and a second one has none
            deliver(rt, NOTIFY_ASSIGNMENT, {"role": "ips:replier"})

    def test_unoffered_assignment_rejected(self):
        rt, _ = participant_bus()
        deliver(rt, CALL_FOR_COLLABORATION, {"protocol": "request", "task": "t1"})
        with pytest.raises(ProtocolViolationError):
            deliver(rt, NOTIFY_ASSIGNMENT, {"role": "ips:replier"})

    def test_stop_resets_the_thread(self):
        rt, participant = participant_bus()
        deliver(rt, CALL_FOR_COLLABORATION, CALL_IPS)
        replies = deliver(rt, STOP_SELECTION, {})
        assert participant.pending == {}
        assert replies == []


    @pytest.mark.parametrize("performative", [READY_TO_SELECT, UNABLE_TO_SELECT])
    def test_a_reply_performative_is_a_violation(self, performative):
        rt, _ = participant_bus()
        with pytest.raises(ProtocolViolationError):
            deliver(rt, performative, {"roles": []})

    def test_other_messages_are_not_for_the_participant(self):
        rt, participant = participant_bus()
        deliver(rt, CALL_FOR_COLLABORATION, CALL_IPS)
        for performative in (WAKE, "ask-one"):
            assert deliver(rt, performative, {"q": "x"}) == []
        assert list(participant.pending) == ["t1/d1"]


@pytest.mark.parametrize("family", ["bundled", "joint"])
def test_no_offer_is_left_pending_after_a_joint_run(family):
    """Every offer ends in an assignment or a stop, and an ended offer
    leaves nothing behind."""
    scenarios = [s for s in sample_scenarios(family) if s.selection_mode == "joint"]
    assert scenarios
    for scenario in scenarios:
        rt = build_runtime(scenario)
        rt.run_until_quiescent()
        participants = [a for a in rt.agents.values() if isinstance(a, SelectionParticipant)]
        assert participants and all(p.pending == {} for p in participants)


# ---------------------------------------------------------------------------
# Rounds on the bus, against scripted repliers
# ---------------------------------------------------------------------------


class ScriptedReplier(AgentBase):
    """Answers each call for collaboration with its next canned
    ``(performative, content, delay)`` reply, or not at all for a
    ``None``; logs every delivery."""

    def __init__(self, name: str, replies: list[tuple[str, dict, int]], log: list) -> None:
        super().__init__(name)
        self.replies = list(replies)
        self.log = log

    def on_message(self, rt: SimRuntime, msg: Message) -> None:
        self.log.append((self.name, msg.performative, msg.content))
        if msg.performative != CALL_FOR_COLLABORATION:
            return
        canned = self.replies.pop(0)
        if canned is not None:
            performative, content, delay = canned
            reply = Message(
                performative, content, "kv", "core", self.name, msg.sender, msg.conversation_id
            )
            rt.schedule_send(reply, delay=delay)


READY_IPS = (READY_TO_SELECT, {"roles": ["ips:replier"]}, 0)
READY_REQUEST = (READY_TO_SELECT, {"roles": ["request:replier"]}, 0)
UNABLE = (UNABLE_TO_SELECT, {"reason": "unwilling"}, 0)


EXHAUSTED = ("failure", {"reason": "exhausted"})


def one_one(agent: str, protocol_id: str) -> tuple[str, dict]:
    """The outcome of a one-to-one selection of ``agent`` as the replier
    of ``protocol_id``."""
    return "selected", {"protocol": protocol_id, "agent": agent, "role": f"{protocol_id}:replier"}


def run_joint(
    identified: dict[str, list[str]], script: dict, reply_deadline: int = 10, registry=None
):
    """Run a joint initiator ``q1`` holding TASK over ``registry`` (both
    one-to-one protocols by default); return it, the runtime and the
    repliers' delivery log."""
    if registry is None:
        registry = {"ips": one_one_protocol("ips"), "request": one_one_protocol("request")}
    model = InteractionModel({protocol_id: frozenset({"asker"}) for protocol_id in registry})
    rt = SimRuntime(seed=0)
    task = TASK._replace(participants={p: tuple(agents) for p, agents in identified.items()})
    candidates = match_task_to_protocols(task, model, registry)
    initiator = JointInitiator("q1", task, candidates, registry, PROTOCOL_ORIENTED, reply_deadline)
    rt.register(initiator)
    log: list = []
    for agent, replies in script.items():
        rt.register(ScriptedReplier(agent, replies, log))
    rt.run_until_quiescent()
    return initiator, rt, log


def sent_by(rt: SimRuntime, sender: str) -> list[tuple[str, str]]:
    """(receiver, performative) of every message ``sender`` sent to
    another agent, in send order."""
    return [
        (e.payload["to"], e.payload["performative"])
        for e in rt.trace
        if e.kind == "send" and e.payload["from"] == sender and e.payload["to"] != sender
    ]


class TestRunJoint11:
    """One-to-one exploration: agent after agent, first acceptable role wins."""

    def test_first_acceptable_agent_wins(self):
        initiator, rt, log = run_joint(
            {"ips": ["d1", "d2", "d3"]}, {"d1": [UNABLE], "d2": [READY_IPS], "d3": []}
        )
        assert initiator.outcome == one_one("d2", "ips")
        # a refusal is not stopped, the winner is assigned, and nobody
        # after it is called
        assert sent_by(rt, "q1") == [
            ("d1", CALL_FOR_COLLABORATION),
            ("d2", CALL_FOR_COLLABORATION),
            ("d2", NOTIFY_ASSIGNMENT),
        ]
        assert not [entry for entry in log if entry[0] == "d3"]

    def test_initiator_roles_are_not_acceptable(self):
        # an offer listing only initiator-kind roles is declined
        ready = (READY_TO_SELECT, {"roles": ["ips:asker"]}, 0)
        initiator, rt, _ = run_joint({"ips": ["d1"]}, {"d1": [ready]})
        assert initiator.outcome == EXHAUSTED
        assert sent_by(rt, "q1") == [("d1", CALL_FOR_COLLABORATION), ("d1", STOP_SELECTION)]

    def test_an_offer_of_no_role_answers_a_pairwise_call(self):
        # the round closes on it at once, with nothing acceptable
        empty = (READY_TO_SELECT, {"roles": []}, 0)
        initiator, rt, _ = run_joint(
            {"ips": ["d1", "d2"]}, {"d1": [empty], "d2": [READY_IPS]}, reply_deadline=4
        )
        assert initiator.outcome == one_one("d2", "ips")
        assert sent_by(rt, "q1") == [
            ("d1", CALL_FOR_COLLABORATION),
            ("d1", STOP_SELECTION),
            ("d2", CALL_FOR_COLLABORATION),
            ("d2", NOTIFY_ASSIGNMENT),
        ]
        assert sent_at(rt, CALL_FOR_COLLABORATION) == [(0, "d1"), (0, "d2")]

    def test_compatible_role_of_other_identified_protocol_accepted(self):
        initiator, rt, _ = run_joint({"ips": ["d7"]}, {"d7": [READY_REQUEST]})
        assert initiator.outcome == one_one("d7", "request")
        assert ("d7", NOTIFY_ASSIGNMENT) in sent_by(rt, "q1")

    def test_exploration_moves_to_next_vector(self):
        initiator, _, log = run_joint(
            {"ips": ["d1", "d2"], "request": ["d1", "d3"]},
            {"d1": [UNABLE, UNABLE], "d2": [UNABLE], "d3": [READY_REQUEST]},
        )
        assert initiator.outcome == one_one("d3", "request")
        asked = [
            (agent, content["protocol"])
            for agent, performative, content in log
            if performative == CALL_FOR_COLLABORATION
        ]
        assert asked == [("d1", "ips"), ("d2", "ips"), ("d1", "request"), ("d3", "request")]

    def test_everybody_refusing_exhausts_the_matrix(self):
        agents = sorted(set(INCIDENCES["ips"]) | set(INCIDENCES["request"]))
        initiator, _, _ = run_joint(INCIDENCES, {a: [UNABLE, UNABLE] for a in agents})
        assert initiator.outcome == EXHAUSTED

    def test_message_count_stays_under_bound(self):
        agents = sorted(set(INCIDENCES["ips"]) | set(INCIDENCES["request"]))
        initiator, rt, _ = run_joint(INCIDENCES, {a: [UNABLE, UNABLE] for a in agents})
        matrix = initiator.matrix
        messages = sum(
            1 for e in rt.trace if e.kind == "send" and e.payload["from"] != e.payload["to"]
        )
        assert messages <= 3 * len(matrix.protocols) * len(matrix.agents)

    def test_reply_after_the_deadline_is_stopped(self):
        late = (READY_TO_SELECT, {"roles": ["ips:replier"]}, 5)
        initiator, rt, log = run_joint(
            {"ips": ["d1", "d2"]}, {"d1": [late], "d2": [READY_IPS]}, reply_deadline=2
        )
        assert initiator.outcome == one_one("d2", "ips")
        # d1 is stopped when its deadline passes, and its late offer is
        # answered with another stop rather than an assignment
        to_d1 = [performative for receiver, performative in sent_by(rt, "q1") if receiver == "d1"]
        assert to_d1 == [CALL_FOR_COLLABORATION, STOP_SELECTION, STOP_SELECTION]
        assert [p for agent, p, _ in log if agent == "d1"][-1] == STOP_SELECTION


#: two one-to-many protocols the task can run on, each with a ``bidder`` role
TENDERS = {
    pid: one_one_n_protocol(pid, tags=("query",)) for pid in ("bid", "tender")
}


def offer(protocol_id: str, delay: int = 0) -> tuple[str, dict, int]:
    return READY_TO_SELECT, {"roles": [f"{protocol_id}:bidder"]}, delay


def largest_set(*agents: str, protocol_id: str = "bid") -> tuple[str, dict]:
    role = f"{protocol_id}:bidder"
    return "selected", {"protocol": protocol_id, "role": role, "agents": list(agents)}


def sent_at(rt: SimRuntime, performative: str, field: str = "to") -> list[tuple[int, object]]:
    """(tick, ``field``) of every ``performative`` message sent, in send order."""
    return [
        (e.tick, e.payload[field]) for e in rt.trace
        if e.kind == "send" and e.payload["performative"] == performative
    ]


class TestRunJointBroadcast:
    """One-to-many exploration: the call goes to the whole vector, and
    the round is arbitrated once every member answered or at the
    deadline."""

    def run(self, identified, script, reply_deadline=10):
        return run_joint(identified, script, reply_deadline, registry=TENDERS)

    def test_round_closes_when_the_last_member_answers(self):
        initiator, rt, _ = self.run(
            {"bid": ["d1", "d2", "d3"]},
            {"d1": [offer("bid")], "d2": [offer("bid", 3)], "d3": [offer("bid", 1)]},
        )
        assert initiator.outcome == largest_set("d1", "d2", "d3")
        assert sent_at(rt, NOTIFY_ASSIGNMENT) == [(3, "d1"), (3, "d2"), (3, "d3")]

    def test_a_refusal_counts_as_an_answer(self):
        refusal = (UNABLE_TO_SELECT, {"reason": "unwilling"}, 2)
        initiator, rt, _ = self.run(
            {"bid": ["d1", "d2", "d3"]},
            {"d1": [offer("bid")], "d2": [offer("bid")], "d3": [refusal]},
        )
        assert initiator.outcome == largest_set("d1", "d2")
        assert sent_at(rt, NOTIFY_ASSIGNMENT) == [(2, "d1"), (2, "d2")]
        assert sent_at(rt, STOP_SELECTION) == []  # a refuser is not stopped

    def test_at_the_deadline_the_replies_in_hand_are_arbitrated(self):
        initiator, rt, log = self.run(
            {"bid": ["d1", "d2", "d3"]},
            {"d1": [offer("bid")], "d2": [offer("bid")], "d3": [None]},
            reply_deadline=4,
        )
        assert initiator.outcome == largest_set("d1", "d2")
        assert sent_at(rt, NOTIFY_ASSIGNMENT) == [(4, "d1"), (4, "d2")]
        # the silent member hears nothing after the call
        assert [p for agent, p, _ in log if agent == "d3"] == [CALL_FOR_COLLABORATION]

    def test_an_offer_of_no_role_is_no_answer(self):
        empty = (READY_TO_SELECT, {"roles": []}, 0)
        initiator, rt, log = self.run(
            {"bid": ["d1", "d2"]}, {"d1": [empty], "d2": [offer("bid")]}, reply_deadline=4
        )
        assert initiator.outcome == largest_set("d2")
        assert sent_at(rt, NOTIFY_ASSIGNMENT) == [(4, "d2")]
        assert [p for agent, p, _ in log if agent == "d1"] == [CALL_FOR_COLLABORATION]

    def test_nothing_picked_stops_every_replier_and_calls_the_next_vector(self):
        ghost = (READY_TO_SELECT, {"roles": ["ghost:bidder"]}, 0)
        initiator, rt, _ = self.run(
            {"bid": ["d1", "d2", "d3"], "tender": ["d1", "d4"]},
            {"d1": [ghost, offer("tender")], "d2": [ghost], "d3": [UNABLE], "d4": [UNABLE]},
        )
        assert initiator.outcome == largest_set("d1", protocol_id="tender")
        assert sent_by(rt, "q1") == [
            ("d1", CALL_FOR_COLLABORATION),
            ("d2", CALL_FOR_COLLABORATION),
            ("d3", CALL_FOR_COLLABORATION),
            ("d1", STOP_SELECTION),
            ("d2", STOP_SELECTION),
            ("d1", CALL_FOR_COLLABORATION),
            ("d4", CALL_FOR_COLLABORATION),
            ("d1", NOTIFY_ASSIGNMENT),
        ]
        # the wakes arm rounds 1 and 3: the close of a broadcast uses up a number
        assert [content for _, content in sent_at(rt, WAKE, "content")] == [
            {"round": 1},
            {"round": 3},
        ]


@pytest.mark.parametrize("role", ["bid:asker", "bid:nosuchrole"])
def test_a_broadcast_backs_no_role_that_is_not_a_participant_role(role):
    """The initiator role, or no role of the protocol at all, is never
    assigned, as in a pairwise round: the round closes with nothing
    picked and stops its repliers."""
    unusable = (READY_TO_SELECT, {"roles": [role]}, 0)
    initiator, rt, _ = run_joint(
        {"bid": ["d1", "d2"]}, {"d1": [unusable], "d2": [unusable]}, registry=TENDERS
    )
    assert initiator.outcome == EXHAUSTED
    assert sent_at(rt, NOTIFY_ASSIGNMENT) == []
    assert sent_at(rt, STOP_SELECTION) == [(0, "d1"), (0, "d2")]


def test_a_replier_offering_only_unusable_roles_still_counts():
    """d2 backs nothing, yet it is one of the three repliers: bid:bidder,
    backed by two of them, wins without being listed by all."""
    both = (READY_TO_SELECT, {"roles": ["bid:asker", "bid:bidder"]}, 0)
    asker = (READY_TO_SELECT, {"roles": ["bid:asker"]}, 0)
    initiator, rt, _ = run_joint(
        {"bid": ["d1", "d2", "d3"]},
        {"d1": [both], "d2": [asker], "d3": [offer("bid")]},
        registry=TENDERS,
    )
    assert initiator.outcome == largest_set("d1", "d3")
    assert sent_at(rt, STOP_SELECTION) == [(0, "d2")]


def test_a_late_offer_during_a_broadcast_round_is_stopped():
    """An offer from outside the open round is stopped, whatever the round kind."""
    # bid closes at its deadline (tick 3) with nothing picked; d1's
    # offer arrives at tick 5, just before tender's offers close it
    initiator, rt, log = run_joint(
        {"bid": ["d1", "d2", "d3"], "tender": ["d4", "d5"]},
        {
            "d1": [offer("bid", 5)],
            "d2": [UNABLE],
            "d3": [UNABLE],
            "d4": [offer("tender", 2)],
            "d5": [offer("tender", 2)],
        },
        reply_deadline=3,
        registry=TENDERS,
    )
    assert initiator.outcome == largest_set("d4", "d5", protocol_id="tender")
    assert sent_at(rt, STOP_SELECTION) == [(5, "d1")]
    assert [p for agent, p, _ in log if agent == "d1"] == [
        CALL_FOR_COLLABORATION,
        STOP_SELECTION,
    ]


#: ready-to-select roles that are not distinct ``protocol:role`` strings,
#: with the reason the initiator notes; ``{p}:{r}`` is a role of the call
MALFORMED = {
    "duplicate": (["{p}:{r}", "{p}:{r}"], "duplicate roles in ready-to-select payload"),
    "no-colon": (["nocolon"], "bad role reference 'nocolon', expected 'protocol:role'"),
    "not-strings": ([1], "roles must be a list of 'protocol:role' strings, not [1]"),
}


def malformed(kind: str, protocol_id: str, role_id: str) -> tuple[str, dict, int]:
    roles, _ = MALFORMED[kind]
    roles = [r.format(p=protocol_id, r=role_id) if isinstance(r, str) else r for r in roles]
    return READY_TO_SELECT, {"roles": roles}, 0


def malformed_notes(rt: SimRuntime) -> list[dict]:
    return [
        e.payload for e in rt.trace
        if e.kind == "selection" and e.payload["step"] == "malformed-offer"
    ]


@pytest.mark.parametrize("kind", sorted(MALFORMED))
class TestMalformedOffer:
    """A malformed ready-to-select is a refusal, noted once: the round
    closes without it and the run goes on."""

    def test_in_a_broadcast_round(self, kind):
        initiator, rt, log = run_joint(
            {"bid": ["d1", "d2"]},
            {"d1": [malformed(kind, "bid", "bidder")], "d2": [offer("bid")]},
            registry=TENDERS,
        )
        assert initiator.outcome == largest_set("d2")
        assert sent_at(rt, NOTIFY_ASSIGNMENT) == [(0, "d2")]
        # a refuser is not stopped
        assert [p for agent, p, _ in log if agent == "d1"] == [CALL_FOR_COLLABORATION]
        assert malformed_notes(rt) == [
            {"task": "t1", "step": "malformed-offer", "agent": "d1", "reason": MALFORMED[kind][1]}
        ]

    def test_each_copy_of_one_malformed_offer_is_refused(self, kind):
        # the initiator remembers the offers it read, but not a refusal
        initiator, rt, _ = run_joint(
            {"bid": ["d1", "d2", "d3"]},
            {
                "d1": [malformed(kind, "bid", "bidder")],
                "d2": [malformed(kind, "bid", "bidder")],
                "d3": [offer("bid")],
            },
            registry=TENDERS,
        )
        assert initiator.outcome == largest_set("d3")
        assert [note["agent"] for note in malformed_notes(rt)] == ["d1", "d2"]

    def test_in_a_pairwise_round(self, kind):
        initiator, rt, _ = run_joint(
            {"ips": ["d1", "d2"]}, {"d1": [malformed(kind, "ips", "replier")], "d2": [READY_IPS]}
        )
        assert initiator.outcome == one_one("d2", "ips")
        assert sent_by(rt, "q1") == [
            ("d1", CALL_FOR_COLLABORATION),
            ("d2", CALL_FOR_COLLABORATION),
            ("d2", NOTIFY_ASSIGNMENT),
        ]
        assert [note["agent"] for note in malformed_notes(rt)] == ["d1"]


def test_an_initiator_role_is_never_offered():
    """An agent that also enacts the called protocol's initiator role
    offers only its participant role, and a compatibility pair whose
    second element is an initiator role adds nothing to the offer."""
    registry, _, _ = _participant_world()
    model = InteractionModel(
        {"ips": frozenset({"asker", "replier"}), "request": frozenset({"asker"})}
    )
    replier = RoleRef("ips", "replier")
    mine = model.participant_refs(registry)
    assert offered_roles(mine, frozenset(), registry)["ips"] == (replier,)
    table = frozenset({(RoleRef("ips", "asker"), RoleRef("request", "asker"))})
    assert offered_roles(mine, table, registry)["ips"] == (replier,)


# ---------------------------------------------------------------------------
# Exploration by agent: a column's cells are called by their category
# ---------------------------------------------------------------------------


def _bundled_agent_oriented(name: str):
    doc = json.loads((FIXTURES / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
    return scenario_from_dict({**doc, "exploration": AGENT_ORIENTED})


class TestAgentOrientedExploration:
    """A column yields one (protocol, agents) cell per protocol, and each
    is called as a row's cell would be: a one-to-one protocol agent by
    agent, any other as one broadcast to the agents of the cell."""

    def test_a_multi_role_protocol_is_allocated_not_taken_pairwise(self):
        # no agent of auction_tree enacts every auction role by itself
        _, summary = run_scenario(_bundled_agent_oriented("auction_tree"))
        (task,) = summary.tasks
        assert (task.outcome, task.detail) == ("failure", {"reason": "exhausted"})

    def test_a_many_instance_protocol_takes_the_largest_set(self):
        _, summary = run_scenario(_bundled_agent_oriented("cnp_largest_set"))
        (task,) = summary.tasks
        assert (task.outcome, task.detail) == (
            "selected", {"agents": ["a3"], "protocol": "cnp", "role": "cnp:contractor"}
        )


AUCTION_ROLES = ("buyer", "manager", "seller")


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([PROTOCOL_ORIENTED, AGENT_ORIENTED]))
def test_a_selected_outcome_follows_its_protocols_category(data, exploration):
    """In both orientations: a multi-role selection assigns every
    participant role of its protocol, a many-instance one names its
    backing agents and a one-to-one one names its agent."""
    n_agents = data.draw(st.integers(min_value=1, max_value=4))
    bidders = [f"b{i}" for i in range(n_agents)]
    cases = [("brokering", "auction", "opener"), ("contracting", "cnp", "manager"),
             ("document-query", "ips", "asker")]
    agents = [{"id": f"o{k}", "enacts": {p: [role]}} for k, (_, p, role) in enumerate(cases)]
    for bidder in bidders:
        enacts = {
            "auction": data.draw(st.lists(st.sampled_from(AUCTION_ROLES), unique=True)),
            "cnp": ["contractor"] * data.draw(st.booleans()),
            "ips": ["replier"] * data.draw(st.booleans()),
        }
        agents.append({"id": bidder, "enacts": {p: sorted(r) for p, r in enacts.items() if r}})
    doc = {
        "scenario_id": "cells",
        "seed": data.draw(st.integers(min_value=0, max_value=999)),
        "selection_mode": "joint",
        "exploration": exploration,
        "protocols": ["auction", "cnp", "ips"],
        "agents": agents,
        "tasks": [
            {
                "id": f"t{k}",
                "initiator": f"o{k}",
                "capabilities": [capability],
                "participants": {protocol: bidders},
            }
            for k, (capability, protocol, _) in enumerate(cases)
        ],
    }
    scenario = scenario_from_dict(doc)
    _, summary = run_scenario(scenario)
    for task in summary.tasks:
        if task.outcome != "selected":
            continue
        protocol = scenario.registry[task.detail["protocol"]]
        category = classify_protocol(protocol)
        if category is ProtocolCategory.ONE_N:
            roles = {f"{protocol.protocol_id}:{m.role_id}" for m in protocol.participant_roles()}
            assert set(task.detail["assignment"]) == roles
        elif category is ProtocolCategory.ONE_ONE_N:
            assert task.detail["agents"]
        else:
            assert task.detail["agent"] in bidders
