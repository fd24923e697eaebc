"""Control-zone behavior: parallel candidates behind one conversation.

The frozen narrative runs the four bundled attribute servers against an
opening ask at seed 51: the digest answers with a number, the lookup
with an insert, probe and query with the same textual tell.  The tell
wins the draw, both its generators stay active, and the error rules
then walk the alternates exactly as the removal/replacement story says
they should.
"""

from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import given, settings

from parley.fixtures import ROOT as FIXTURES
from parley.individual import (
    WRONG_CONTENT,
    WRONG_STRUCTURE,
    receiving_roles,
)
from parley.journal import DataChange, Journal, JournalRecord
from parley.mixed import (
    ACTIVE,
    DEACTIVATED,
    STOPPED,
    ControlZone,
    RoleInstance,
    feed,
    handle_error_mixed,
    handle_incoming,
    instantiate_all,
    reactivate,
    same_signature,
    select_outgoing,
    stop_active,
)
from parley.model import (
    Action,
    Message,
    MessageSchema,
    Protocol,
    RoleKind,
    RoleRef,
    RoleStateMachine,
    Transition,
    Trigger,
)
from parley.patterns import fill_pattern
from parley.scenario import build_runtime, load_registry, parse_scenario

from .generators import message_pairs
from .helpers import twin_protocol
from .oracles import oracle_same_signature, oracle_shape_key, oracle_zone_coherent

GOLDEN_SEED = 51
SERVER_PROTOCOLS = ("attr_digest", "attr_lookup", "attr_probe", "attr_query")


def msg(performative, content, sender="q2", receiver="c1", reply_with=None):
    return Message(
        performative=performative,
        content=content,
        language="kv",
        ontology="core",
        sender=sender,
        receiver=receiver,
        conversation_id="t2/c1",
        reply_with=reply_with,
    )


ASK = msg("ask-one", {"attribute": "modified", "document": "d4"}, reply_with="q2.1")


def server(protocol_id: str) -> RoleRef:
    return RoleRef(protocol_id, "server")


def server_collection() -> set[RoleRef]:
    return {server(pid) for pid in SERVER_PROTOCOLS}


@pytest.fixture(scope="module")
def registry():
    return load_registry(SERVER_PROTOCOLS)


def instantiate(collection, registry, rng):
    """Open a zone on ASK, matched once as the responder matches it."""
    takers = receiving_roles(tuple(sorted(collection)), registry, ASK)
    return instantiate_all(takers, registry, Journal("t2/c1", "c1", "q2"), ASK, rng)


def fresh_zone(registry, seed: int):
    rng = Random(seed)
    cz = instantiate(server_collection(), registry, rng)
    return cz, rng


def statuses(cz: ControlZone) -> dict[str, str]:
    return {ref.protocol: cz.instances[ref].activation for ref in sorted(cz.instances)}


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


class TestInstantiateAll:
    def test_every_taker_answers_and_is_parked(self, registry):
        cz, _ = fresh_zone(registry, GOLDEN_SEED)
        assert len(cz.outbox) == 4
        assert statuses(cz) == {pid: DEACTIVATED for pid in SERVER_PROTOCOLS}
        assert all(inst.stamp == 1 for inst in cz.with_activation(DEACTIVATED))
        assert len(cz.journal) == 0

    def test_candidates_share_one_reply_slot(self, registry):
        cz, _ = fresh_zone(registry, GOLDEN_SEED)
        assert {e.message.reply_with for e in cz.outbox} == {"c1.1"}

    def test_golden_outbox(self, registry):
        cz, _ = fresh_zone(registry, GOLDEN_SEED)
        snapshot = {
            e.ref.protocol: (e.message.performative, e.message.content) for e in cz.outbox
        }
        assert snapshot == {
            "attr_digest": ("tell", {"value": 7}),
            "attr_lookup": ("insert", {"fact": "text"}),
            "attr_probe": ("tell", {"value": "text"}),
            "attr_query": ("tell", {"value": "text"}),
        }

    def test_role_without_an_answer_is_stopped(self, registry):
        # "mute" takes the ask, but its step ends without a reply
        shot = _one_shot_protocol("mute")
        served = shot.roles["server"]
        take = served.transitions[0]._replace(action=Action(kind="none"))
        mute = shot._replace(roles={"server": RoleStateMachine(
            served.role_id, served.kind, served.multiplicity, served.states,
            served.initial_state, served.terminal_states, (take,), served.father,
        )})
        reg = dict(registry)
        reg["mute"] = mute
        collection = {server("attr_query"), server("mute")}
        cz = instantiate(collection, reg, Random(0))
        assert statuses(cz)["mute"] == STOPPED
        assert statuses(cz)["attr_query"] == DEACTIVATED
        assert [e.ref.protocol for e in cz.outbox] == ["attr_query"]


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


class TestSelectOutgoing:
    def test_weak_replies_never_win_while_sturdy_ones_exist(self, registry):
        # The digest server can always answer and never gives up, so a
        # give-up (sorry/error) must never be the step's message.
        for seed in range(40):
            cz, rng = fresh_zone(registry, seed)
            selected = select_outgoing(cz, rng)
            assert selected.performative in {"tell", "insert"}

    def test_matching_generators_wake_together(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        selected = select_outgoing(cz, rng)
        assert selected.performative == "tell" and selected.content == {"value": "text"}
        active = [i.ref for i in cz.with_activation(ACTIVE)]
        assert active == [server("attr_probe"), server("attr_query")]
        assert {e.ref.protocol for e in cz.outbox} == {"attr_digest", "attr_lookup"}

    def test_selection_journals_one_generators_records(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        select_outgoing(cz, rng)
        methods = [r.method for r in cz.journal.records]
        assert methods in (["ap-take", "ap-answer"], ["aq-take", "aq-answer"])
        assert cz.journal.records[0].input_event == ASK

    def test_initial_selection_burns_no_stamp(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        select_outgoing(cz, rng)
        assert cz.stamp_counter == 1
        assert {i.stamp for i in cz.with_activation(DEACTIVATED)} == {1}

    def test_lone_candidate_is_forced(self, registry):
        collection = {server("attr_query")}
        for seed in range(8):
            rng = Random(seed)
            cz = instantiate(collection, registry, rng)
            only = cz.outbox[0].message
            assert select_outgoing(cz, rng) == only

    def test_empty_outbox_is_a_caller_bug(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        cz.outbox.clear()
        with pytest.raises(ValueError):
            select_outgoing(cz, rng)

    def test_coherence_holds_after_every_selection(self, registry):
        for seed in range(40):
            cz, rng = fresh_zone(registry, seed)
            select_outgoing(cz, rng)
            assert oracle_zone_coherent(cz)

    def test_identical_tells_do_wake_pairs_somewhere(self, registry):
        # Sanity check on the fixture family: some seed in the sweep
        # makes probe and query answer identically and win together.
        paired = False
        for seed in range(40):
            cz, rng = fresh_zone(registry, seed)
            select_outgoing(cz, rng)
            paired = paired or len(cz.with_activation(ACTIVE)) == 2
        assert paired


def _one_shot_protocol(protocol_id: str) -> Protocol:
    """A server that answers once with a weak goodbye and is done."""
    schemas = {
        "ask": MessageSchema(
            schema_id="ask",
            performative="ask-one",
            content_pattern={"attribute": "?string", "document": "?string"},
        ),
        "bye": MessageSchema(schema_id="bye", performative="sorry", content_pattern={}),
    }
    machine = RoleStateMachine(
        role_id="server",
        kind=RoleKind.PARTICIPANT,
        multiplicity=1,
        states=frozenset({"p0", "p1", "gone"}),
        initial_state="p0",
        terminal_states=frozenset({"gone"}),
        transitions=(
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
                Action(kind="send", schema_id="bye"),
                "gone",
                f"{protocol_id}-bye",
            ),
        ),
    )
    return Protocol(
        protocol_id=protocol_id,
        capability_tags=frozenset({"fading"}),
        schemas=schemas,
        roles={"server": machine},
    )


class TestReconcile:
    def twin_zone(self, pokeable_twin: bool = False):
        registry = {
            "twin_a": twin_protocol("twin_a"),
            "twin_b": twin_protocol("twin_b", pokeable=pokeable_twin),
        }
        rng = Random(3)
        collection = {server("twin_a"), server("twin_b")}
        cz = instantiate(collection, registry, rng)
        return cz, registry, rng

    def test_unanimous_steps_keep_everyone_active(self):
        cz, registry, rng = self.twin_zone()
        select_outgoing(cz, rng)
        assert [i.ref for i in cz.with_activation(ACTIVE)] == [server("twin_a"), server("twin_b")]
        assert cz.stamp_counter == 1
        follow_up = msg("ask-one", {"attribute": "size", "document": "d1"}, reply_with="q2.2")
        assert handle_incoming(cz, follow_up, rng) is None
        select_outgoing(cz, rng)
        assert [i.ref for i in cz.with_activation(ACTIVE)] == [server("twin_a"), server("twin_b")]
        assert cz.stamp_counter == 1  # nothing diverged, nothing parked
        assert oracle_zone_coherent(cz)

    def test_divergent_steps_park_the_losers_with_a_fresh_stamp(self, registry):
        for seed in range(60):
            cz, rng = fresh_zone(registry, seed)
            select_outgoing(cz, rng)
            if len(cz.with_activation(ACTIVE)) < 2:
                continue
            follow_up = msg(
                "ask-one", {"attribute": "size", "document": "d1"}, reply_with="q2.2"
            )
            assert handle_incoming(cz, follow_up, rng) is None
            before = [i.ref for i in cz.with_activation(ACTIVE)]
            select_outgoing(cz, rng)
            assert oracle_zone_coherent(cz)
            parked = [i for i in cz.with_activation(DEACTIVATED) if i.stamp == 2]
            if parked:
                assert len(parked) + len(cz.with_activation(ACTIVE)) == len(before)
                return
        pytest.fail("no seed produced a divergent pair of active replies")


class TestHandleIncoming:
    def test_message_nobody_takes_reports_without_touching(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        select_outgoing(cz, rng)
        alternates = list(cz.outbox)
        broken = msg("ask-one", {"attribute": 9, "document": "d4"}, reply_with="q2.2")
        assert handle_incoming(cz, broken, rng) == WRONG_CONTENT
        assert cz.outbox == alternates
        alien = msg("yodel", {"la": "hi"}, reply_with="q2.2")
        assert handle_incoming(cz, alien, rng) == WRONG_STRUCTURE

    def test_the_real_message_stops_roles_it_proves_wrong(self):
        registry = {
            "twin_a": twin_protocol("twin_a"),
            "twin_b": twin_protocol("twin_b", pokeable=True),
        }
        rng = Random(3)
        collection = {server("twin_a"), server("twin_b")}
        cz = instantiate(collection, registry, rng)
        select_outgoing(cz, rng)
        assert len(cz.with_activation(ACTIVE)) == 2
        poke = msg("request", {"note": "more"}, reply_with="q2.2")
        assert handle_incoming(cz, poke, rng) is None
        assert statuses(cz) == {"twin_a": STOPPED, "twin_b": ACTIVE}
        assert [e.ref.protocol for e in cz.outbox] == ["twin_b"]


# ---------------------------------------------------------------------------
# Error handling on the sent message
# ---------------------------------------------------------------------------


class TestHandleErrorMixed:
    def test_content_complaint_swaps_in_a_differently_patterned_tell(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        select_outgoing(cz, rng)
        replacement = handle_error_mixed(cz, WRONG_CONTENT, rng)
        assert replacement is not None
        assert replacement.performative == "tell"
        assert replacement.content == {"value": 7}
        assert replacement.reply_with == "c1.2"  # a fresh send, not a re-send
        assert statuses(cz) == {
            "attr_digest": ACTIVE,
            "attr_lookup": DEACTIVATED,
            "attr_probe": STOPPED,
            "attr_query": STOPPED,
        }
        # the journal now reads as if the digest had answered all along
        assert [r.method for r in cz.journal.records] == ["ad-take", "ad-measure"]
        assert [e.ref.protocol for e in cz.outbox] == ["attr_lookup"]
        assert cz.last_sent.message == replacement

    def test_a_substitute_is_journaled_as_the_message_sent(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        select_outgoing(cz, rng)
        replacement = handle_error_mixed(cz, WRONG_CONTENT, rng)
        take, measure = cz.journal.records
        # the cascade's changes stand; only its send carries the new tag
        assert take.output == DataChange("q", ASK.content)
        assert measure.output is replacement
        assert [isinstance(r.output, Message) for r in cz.last_sent.records] == [False, True]

    def test_structure_complaint_also_voids_same_shaped_alternates(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        select_outgoing(cz, rng)
        replacement = handle_error_mixed(cz, WRONG_STRUCTURE, rng)
        assert replacement is not None
        assert replacement.performative == "insert"
        assert replacement.content == {"fact": "text"}
        # the digest's numeric tell shares the rejected structure: gone
        assert statuses(cz) == {
            "attr_digest": STOPPED,
            "attr_lookup": ACTIVE,
            "attr_probe": STOPPED,
            "attr_query": STOPPED,
        }
        assert [r.method for r in cz.journal.records] == ["al-take", "al-share"]
        assert cz.outbox == []

    def test_content_complaint_voids_alternates_of_the_same_pattern(self):
        # a tell and an inform of one content pattern: different messages,
        # so the loser stays as an alternate, but the same content, which
        # the counterpart just refused
        registry = {
            "twin_a": twin_protocol("twin_a"),
            "twin_b": twin_protocol("twin_b", answer="inform"),
        }
        for seed in range(4):
            rng = Random(seed)
            cz = instantiate({server("twin_a"), server("twin_b")}, registry, rng)
            sent = select_outgoing(cz, rng)
            assert [e.message.performative for e in cz.outbox] == [
                {"tell": "inform", "inform": "tell"}[sent.performative]
            ]
            assert handle_error_mixed(cz, WRONG_CONTENT, rng) is None
            assert cz.outbox == []
            assert statuses(cz) == {"twin_a": STOPPED, "twin_b": STOPPED}

    def test_exhausted_step_returns_nothing(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        select_outgoing(cz, rng)
        handle_error_mixed(cz, WRONG_CONTENT, rng)
        assert handle_error_mixed(cz, WRONG_CONTENT, rng) is None
        # only the lookup's insert is left, and it has the wrong structure
        assert [e.ref.protocol for e in cz.outbox] == ["attr_lookup"]
        assert statuses(cz)["attr_digest"] == STOPPED

    def test_without_history_there_is_nothing_to_recover(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        with pytest.raises(ValueError):
            handle_error_mixed(cz, WRONG_CONTENT, rng)


# ---------------------------------------------------------------------------
# Reactivation
# ---------------------------------------------------------------------------


class TestReactivate:
    def test_golden_run_falls_back_to_the_parked_lookup(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        select_outgoing(cz, rng)
        handle_error_mixed(cz, WRONG_CONTENT, rng)
        assert handle_error_mixed(cz, WRONG_CONTENT, rng) is None
        plan = reactivate(cz, location=2, offending=None)
        assert plan.refs == (server("attr_lookup"),)
        assert (plan.counterpart_point, plan.own_point) == (1, 1)
        assert not plan.weak_guard
        assert len(cz.journal) == 0
        assert plan.refire == ASK
        assert feed(cz, plan.refire, rng)
        assert len(cz.outbox) == 1 and cz.outbox[0].ref == server("attr_lookup")

    def test_whole_stamp_class_wakes_together(self, registry):
        cz = ControlZone(Journal("t2/c1", "c1", "q2"))
        for pid, stamp in (("attr_digest", 3), ("attr_probe", 3), ("attr_lookup", 1)):
            ref = server(pid)
            instance = cz.instances[ref] = RoleInstance(ref, registry, cz.journal)
            instance.activation, instance.stamp = DEACTIVATED, stamp
        stopped_ref = server("attr_query")
        cz.instances[stopped_ref] = RoleInstance(stopped_ref, registry, cz.journal)
        cz.instances[stopped_ref].activation = STOPPED
        plan = reactivate(cz, location=1, offending=ASK)
        assert plan.refs == (server("attr_digest"), server("attr_probe"))
        assert cz.instances[server("attr_lookup")].activation == DEACTIVATED
        assert cz.instances[stopped_ref].activation == STOPPED
        assert plan.refire == ASK

    def test_nothing_parked_means_the_interaction_fails(self, registry):
        cz, rng = fresh_zone(registry, GOLDEN_SEED)
        for instance in cz.instances.values():
            instance.activation = STOPPED
        assert reactivate(cz, location=1, offending=ASK) is None

    def test_waking_into_a_goodbye_raises_the_guard(self):
        registry = {"fading": _one_shot_protocol("fading")}
        cz = ControlZone(Journal("t2/c1", "c1", "q2"))
        bye = msg("sorry", {}, sender="c1", receiver="q2", reply_with="c1.1")
        cz.journal.records += [
            JournalRecord("fading-take", ASK, DataChange("q", ASK.content)),
            JournalRecord("fading-bye", DataChange("q", ASK.content), bye),
        ]
        ref = server("fading")
        instance = cz.instances[ref] = RoleInstance(ref, registry, cz.journal)
        instance.activation, instance.stamp, instance.state = DEACTIVATED, 1, "gone"
        plan = reactivate(cz, location=2, offending=None)
        assert (plan.counterpart_point, plan.own_point) == (1, 2)
        assert plan.weak_guard  # the only pending reply ends the interaction
        assert cz.instances[ref].state == "p1"
        assert plan.refire == DataChange("q", ASK.content)
        assert feed(cz, plan.refire, Random(0))
        assert [e.message.performative for e in cz.outbox] == ["sorry"]

    def test_the_guard_follows_the_cascade_the_refire_sets_off(self):
        """Woken at ``p0`` with nothing kept, the one-shot server sends
        nothing directly: its goodbye comes from the internal transition
        the re-fired ask's data change sets off, and the guard sees it."""
        registry = {"fading": _one_shot_protocol("fading")}
        cz = ControlZone(Journal("t2/c1", "c1", "q2"))
        ref = server("fading")
        instance = cz.instances[ref] = RoleInstance(ref, registry, cz.journal)
        instance.activation, instance.stamp = DEACTIVATED, 1
        plan = reactivate(cz, location=1, offending=ASK)
        assert (plan.counterpart_point, plan.own_point, plan.refire) == (1, 1, ASK)
        assert cz.instances[ref].state == "p0"
        assert plan.weak_guard
        assert feed(cz, plan.refire, Random(0))
        assert [e.message.performative for e in cz.outbox] == ["sorry"]


# ---------------------------------------------------------------------------
# The responder's reactivation loop, from a protocol document
# ---------------------------------------------------------------------------


def _t(start: str, trigger: tuple[str, str], send: str | None, end: str, method: str) -> dict:
    kind, name = trigger
    return {
        "from": start,
        "trigger": {"kind": kind, "schema" if kind == "receive" else "variable": name},
        "action": {"kind": "send", "schema": send} if send else {"kind": "none"},
        "to": end,
        "method": method,
    }


def _role_doc(role_id: str, kind: str, transitions: list[dict]) -> dict:
    states = sorted({t["from"] for t in transitions} | {t["to"] for t in transitions})
    return {
        "role_id": role_id,
        "kind": kind,
        "multiplicity": 1,
        "states": states,
        "initial": transitions[0]["from"],
        "terminals": ["done"],
        "transitions": transitions,
    }


#: The asker presses a tell with ``more`` and settles for a closing
#: inform, and it has no transition for a report.  Of the servers, ``x``
#: tells and then reports.  ``w`` tells the same tell, or declines the
#: ask silently (one method, two transitions: a seeded draw picks), and
#: takes ``more`` without a word.  ``s`` closes at once; its inform is
#: weak, since it ends the interaction.  ``o`` closes too, one transition
#: later: it takes the ask into a variable, and an internal transition on
#: that variable sends the inform.  ``mute`` takes the ask and sends
#: nothing.
HESITANT = {
    "protocol_id": "hesitant",
    "capability_tags": ["hesitating"],
    "schemas": [
        {"schema_id": "ask", "performative": "ask-one", "content_pattern": {"q": "?string"}},
        {"schema_id": "tell", "performative": "tell", "content_pattern": {"a": "?string"}},
        {"schema_id": "more", "performative": "request", "content_pattern": {"m": "?string"}},
        {"schema_id": "report", "performative": "report", "content_pattern": {"r": "?string"}},
        {"schema_id": "close", "performative": "inform", "content_pattern": {"c": "?string"}},
    ],
    "roles": [
        _role_doc("asker", "initiator", [
            _t("s0", ("internal", "task"), "ask", "s1", "ask"),
            _t("s1", ("receive", "tell"), "more", "s2", "press"),
            _t("s1", ("receive", "close"), None, "done", "settle"),
        ]),
        _role_doc("x", "participant", [
            _t("p0", ("receive", "ask"), "tell", "p1", "x-take"),
            _t("p1", ("receive", "more"), "report", "done", "x-report"),
        ]),
        _role_doc("w", "participant", [
            _t("p0", ("receive", "ask"), "tell", "p1", "w-take"),
            _t("p0", ("receive", "ask"), None, "done", "w-take"),
            _t("p1", ("receive", "more"), None, "done", "w-note"),
        ]),
        _role_doc("s", "participant", [_t("p0", ("receive", "ask"), "close", "done", "s-close")]),
        _role_doc("o", "participant", [
            {**_t("p0", ("receive", "ask"), None, "p1", "o-take"),
             "action": {"kind": "data_change", "variable": "q"}},
            _t("p1", ("internal", "q"), "close", "done", "o-close"),
        ]),
        _role_doc("mute", "participant", [_t("p0", ("receive", "ask"), None, "done", "mute")]),
    ],
}


def run_hesitant(tmp_path, roles: list[str], seed: int):
    """Asker ``q`` against a mixed responder ``c`` enacting ``roles`` of
    HESITANT, read from documents: the runtime and every event but the
    deliveries, as dicts."""
    (tmp_path / "hesitant.json").write_text(json.dumps(HESITANT), encoding="utf-8")
    scenario = {
        "scenario_id": "hesitant",
        "seed": seed,
        "selection_mode": "individual_mixed",
        "protocols": ["hesitant.json"],
        "agents": [
            {"id": "q", "enacts": {"hesitant": ["asker"]}},
            {"id": "c", "enacts": {"hesitant": roles}},
        ],
        "tasks": [
            {"id": "t", "initiator": "q", "capabilities": ["hesitating"],
             "participants": {"hesitant": ["c"]}}
        ],
    }
    (tmp_path / "hesitant_run.json").write_text(json.dumps(scenario), encoding="utf-8")
    runtime = build_runtime(parse_scenario(tmp_path / "hesitant_run.json"))
    events = [e.as_dict() for e in runtime.run_until_quiescent() if e.kind != "deliver"]
    return runtime, events


def _story(events: list[dict]) -> list[tuple]:
    """Each event as (kind, the fields that tell it apart)."""
    told = []
    for e in events:
        if e["kind"] == "send":
            told.append(("send", e["from"], e["performative"], e["content"]))
        elif e["kind"] == "recovery":
            told.append(("recovery", e["roles"], e["points"], e["restart"]))
        elif e["kind"] == "selection":
            told.append(("selection", e["collection"], e["candidates"]))
        else:
            told.append((e["kind"], e["agent"], e["status"]))
    return told


class TestResponderReactivationLoop:
    def test_a_cohort_that_takes_the_refire_silently_passes_to_the_next(self, tmp_path):
        """At seed 1, ``w`` answers the opening with the same tell as
        ``x``, so both stay active and ``s`` is parked (stamp 1).  ``x``
        reports on ``more`` and ``w`` takes it silently, so ``w`` is parked
        (stamp 2).  The asker refuses the report, and no alternate is
        left: the first pass wakes ``w``, whose journal path breaks after
        the opening, so the journal is cut to nothing and the opening is
        re-fired.  This time ``w`` declines it silently, so nothing is
        sent and ``w`` is stopped.  The second pass finds the journal
        empty and re-fires the opening itself for ``s``, whose only reply
        is weak: a ``weak-cohort`` warning goes before its inform, which
        the asker settles for."""
        runtime, events = run_hesitant(tmp_path, ["s", "w", "x"], seed=1)
        assert _story(events) == [
            ("send", "q", "ask-one", {"q": "text"}),
            ("selection", ["hesitant:s", "hesitant:w", "hesitant:x"], 3),
            ("send", "c", "tell", {"a": "text"}),
            ("send", "q", "request", {"m": "text"}),
            ("send", "c", "report", {"r": "text"}),
            ("send", "q", "error-notify",
             {"kind": "wrong-structure", "tag": "c.2", "detected-by": "initiator"}),
            ("recovery", ["hesitant:w"], [1, 1], True),
            ("send", "c", "recover-at", {"point": 1}),
            ("recovery", ["hesitant:s"], [1, 1], True),
            ("send", "c", "recover-at", {"point": 1}),
            ("send", "c", "termination-warning", {"reason": "weak-cohort"}),
            ("send", "c", "inform", {"c": "text"}),
            ("send", "q", "termination-notice", {"state": "done"}),
            ("send", "c", "termination-notice", {"state": "acknowledged"}),
            ("termination", "c", "concluded"),
            ("termination", "q", "concluded"),
        ]
        # the silent pass drew a tag and sent nothing with it
        assert [e["tag"] for e in events if e.get("performative") == "inform"] == ["c.4"]
        zone = runtime.agents["c"].threads["t/c"].zone
        activations = {ref.role: instance.activation for ref, instance in zone.instances.items()}
        assert activations == {"s": ACTIVE, "w": STOPPED, "x": STOPPED}
        assert [r.method for r in zone.journal.records] == ["s-close"]

    def test_a_cohort_whose_reply_comes_from_its_cascade_warns(self, tmp_path):
        """``o``'s inform is weak, so ``x``'s tell wins the opening and
        ``o`` is parked.  The asker refuses ``x``'s report, and no
        alternate is left, so ``o`` wakes with the journal cut to nothing.
        In ``p0`` it sends nothing directly; the re-fired ask's data
        change sets off its inform, so a ``weak-cohort`` warning goes
        before it."""
        _, events = run_hesitant(tmp_path, ["o", "x"], seed=0)
        assert _story(events) == [
            ("send", "q", "ask-one", {"q": "text"}),
            ("selection", ["hesitant:o", "hesitant:x"], 2),
            ("send", "c", "tell", {"a": "text"}),
            ("send", "q", "request", {"m": "text"}),
            ("send", "c", "report", {"r": "text"}),
            ("send", "q", "error-notify",
             {"kind": "wrong-structure", "tag": "c.2", "detected-by": "initiator"}),
            ("recovery", ["hesitant:o"], [1, 1], True),
            ("send", "c", "recover-at", {"point": 1}),
            ("send", "c", "termination-warning", {"reason": "weak-cohort"}),
            ("send", "c", "inform", {"c": "text"}),
            ("send", "q", "termination-notice", {"state": "done"}),
            ("send", "c", "termination-notice", {"state": "acknowledged"}),
            ("termination", "c", "concluded"),
            ("termination", "q", "concluded"),
        ]

    def test_an_opening_its_takers_answer_with_nothing_fails_the_thread(self, tmp_path):
        _, events = run_hesitant(tmp_path, ["mute"], seed=0)
        assert _story(events) == [
            ("send", "q", "ask-one", {"q": "text"}),
            ("selection", ["hesitant:mute"], 0),
            ("send", "c", "termination-warning", {"reason": "no-viable-role"}),
            ("termination", "c", "failed"),
            ("termination", "q", "failed"),
        ]


# ---------------------------------------------------------------------------
# Bounds and snapshots
# ---------------------------------------------------------------------------


class TestRecoveryBound:
    def test_stubborn_rejection_exhausts_the_zone_within_bound(self, registry):
        # A counterpart that rejects every reply's content forces the
        # zone through replacements and reactivations; each costs a
        # role or a stamp class, so it must die out within 2 per role.
        for seed in range(25):
            cz, rng = fresh_zone(registry, seed)
            select_outgoing(cz, rng)
            recoveries = 0
            bound = 2 * len(cz.instances)
            while True:
                recoveries += 1
                assert recoveries <= bound
                if handle_error_mixed(cz, WRONG_CONTENT, rng) is not None:
                    continue
                plan = reactivate(cz, location=max(len(cz.journal), 1), offending=ASK)
                if plan is None:
                    break
                if feed(cz, plan.refire, rng) and cz.outbox:
                    select_outgoing(cz, rng)
                else:
                    stop_active(cz)
            assert not cz.with_activation(ACTIVE) and not cz.with_activation(DEACTIVATED)

    def test_one_message_reaches_the_counterpart_per_step(self, registry):
        def sent(cz):
            return sum(isinstance(record.output, Message) for record in cz.journal.records)

        for seed in range(25):
            cz, rng = fresh_zone(registry, seed)
            select_outgoing(cz, rng)
            assert sent(cz) == 1
            follow_up = msg(
                "ask-one", {"attribute": "size", "document": "d1"}, reply_with="q2.2"
            )
            if handle_incoming(cz, follow_up, rng) is None and cz.outbox:
                select_outgoing(cz, rng)
                assert sent(cz) == 2


class TestSnapshots:
    def test_signature_comparison_reads_structure_and_content(self):
        a = msg("tell", {"value": "text"})
        b = msg("tell", {"value": "text"}, reply_with="other")
        c = msg("tell", {"value": 7})
        assert same_signature(a, b)
        assert not same_signature(a, c)


@settings(max_examples=150, deadline=None)
@given(message_pairs())
def test_signature_agrees_with_the_structure_key_oracle(pair):
    a, b = (
        Message(m["performative"], m["content"], m["language"], m["ontology"], "c1", "q2", "c")
        for m in pair
    )
    assert same_signature(a, b) == oracle_same_signature(*pair)


def test_a_schema_takes_the_structure_of_exactly_the_fills_that_share_its_own():
    """Every zone reply is its schema's fill, so error handling asks the
    failed reply's schema about an alternate's structure.  Over every
    pair of bundled schemas, that agrees with comparing the two fills'
    structure fingerprints."""
    names = sorted(path.stem for path in (FIXTURES / "protocols").glob("*.json"))
    schemas = [s for p in load_registry(names).values() for s in p.schemas.values()]

    def fill(schema):
        content = fill_pattern(schema.content_pattern)
        envelope = schema.performative, content, schema.language, schema.ontology
        return Message(*envelope, "c1", "q2", "t2/c1")

    def fingerprint(m):
        return m.performative, m.language, m.ontology, oracle_shape_key(m.content)

    fills = [fill(schema) for schema in schemas]
    shared = 0
    for schema, own in zip(schemas, fills):
        for other_schema, other in zip(schemas, fills):
            takes = schema.structure_matches(other)
            assert takes == (fingerprint(own) == fingerprint(other)), (schema, other_schema)
            shared += takes and other_schema is not schema
    assert shared > 0
