"""Role swapping after a wrong individual pick.

Covers error classification on incoming messages, collection purges
(for errors caught locally and errors reported by the counterpart),
replacement choice, method graphs, recovery points with clamping, and
journal truncation.  The frozen examples run on the bundled attribute
protocols: an agent serving all four of them picks attr_query, the
answer gets mangled in transit, and the numbers below are what the
recovery machinery must produce for that story.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings

from parley.errors import NoViableRoleError, PointOutOfRangeError
from parley.individual import (
    INITIATOR_DETECTED,
    PARTICIPANT_DETECTED,
    WRONG_CONTENT,
    WRONG_STRUCTURE,
    InteractionError,
    MethodGraph,
    clamped_recovery_points,
    compute_recovery_points,
    locate_emission,
    method_graph,
    purge_collection,
    receiving_roles,
    refire_input,
    select_replacement_role,
    truncate_counterpart,
    truncate_own,
)
from parley.journal import DataChange, Journal, JournalRecord
from parley.machine import MachineDriver, rejection_kind, replay_states
from parley.model import (
    RESERVED_PERFORMATIVES,
    Action,
    InteractionModel,
    RECOVER_AT,
    Message,
    MessageSchema,
    Protocol,
    RoleKind,
    RoleRef,
    RoleStateMachine,
    Transition,
    Trigger,
)

from parley.runtime import WAKE
from parley.scenario import MIXED, SEQUENTIAL, build_runtime, load_registry, scenario_from_dict

from .generators import journal_graph_instances
from .helpers import individual_scenario, rewind_runtime
from .oracles import oracle_recovery_points

CONV = "t2/c1"
SERVER_PROTOCOLS = ("attr_digest", "attr_lookup", "attr_probe", "attr_query")


def msg(performative, content, sender="c1", receiver="q2", reply_with=None):
    return Message(
        performative=performative,
        content=content,
        language="kv",
        ontology="core",
        sender=sender,
        receiver=receiver,
        conversation_id=CONV,
        reply_with=reply_with,
    )


ASK = msg(
    "ask-one",
    {"attribute": "modified", "document": "d4"},
    sender="q2",
    receiver="c1",
    reply_with="q2.1",
)
GOOD_TELL = msg("tell", {"value": "text"}, reply_with="c1.1")
BAD_TELL = msg("tell", {"value": 7}, reply_with="c1.1")


def server(protocol_id: str) -> RoleRef:
    return RoleRef(protocol_id, "server")


def server_collection() -> set[RoleRef]:
    return {server(pid) for pid in SERVER_PROTOCOLS}


def server_journal() -> Journal:
    """What the serving agent recorded while enacting attr_query:server."""
    journal = Journal(CONV, "c1", "q2")
    journal.records += [
        JournalRecord("aq-take", ASK, DataChange("q", ASK.content)),
        JournalRecord("aq-answer", DataChange("q", ASK.content), GOOD_TELL),
    ]
    return journal


@pytest.fixture(scope="module")
def registry():
    return load_registry(SERVER_PROTOCOLS)


# ---------------------------------------------------------------------------
# Error classification and emission lookup
# ---------------------------------------------------------------------------


class TestCheckIncoming:
    """A handler takes a message some transition accepts; otherwise
    rejection_kind names the error."""

    @staticmethod
    def querier(registry, state):
        ref = RoleRef("attr_query", "querier")
        driver = MachineDriver(ref, registry, Journal(CONV, "q2", "c1"))
        driver.state = state
        return driver

    def verdict(self, registry, state, message):
        driver = self.querier(registry, state)
        if driver.enabled_for(message):
            return None
        return rejection_kind((driver,), message)

    def test_expected_message_raises_nothing(self, registry):
        assert self.verdict(registry, "i1", GOOD_TELL) is None

    def test_alternative_branch_also_accepted(self, registry):
        trouble = msg("error", {"info": "no such document"})
        assert self.verdict(registry, "i1", trouble) is None

    def test_type_swapped_value_is_a_content_error(self, registry):
        assert self.verdict(registry, "i1", BAD_TELL) == WRONG_CONTENT

    def test_unknown_performative_is_a_structure_error(self, registry):
        scream = msg("scream", {"value": "text"})
        assert self.verdict(registry, "i1", scream) == WRONG_STRUCTURE

    def test_wrong_keys_break_structure_despite_performative(self, registry):
        off_key = msg("tell", {"val": "text"})
        assert self.verdict(registry, "i1", off_key) == WRONG_STRUCTURE

    def test_state_without_receptions_blames_structure(self, registry):
        assert self.verdict(registry, "i0", GOOD_TELL) == WRONG_STRUCTURE

    def test_any_candidate_fitting_the_structure_makes_it_a_content_error(self, registry):
        placed = [self.querier(registry, "i0"), self.querier(registry, "i1")]
        assert rejection_kind(placed, BAD_TELL) == WRONG_CONTENT
        assert rejection_kind(placed[:1], BAD_TELL) == WRONG_STRUCTURE


class TestLocateEmission:
    def test_finds_the_emitting_record(self):
        journal = server_journal()
        assert locate_emission(journal.records, "c1.1") == 2

    def test_receptions_do_not_count(self):
        journal = server_journal()
        assert locate_emission(journal.records, "q2.1") == 0

    def test_unknown_tag_yields_zero(self):
        assert locate_emission(server_journal().records, "c9.9") == 0


# ---------------------------------------------------------------------------
# Role collections
# ---------------------------------------------------------------------------


class TestParticipantRefs:
    def test_keeps_only_roles_of_the_requested_kind(self, registry):
        model = InteractionModel(
            {"attr_query": frozenset({"querier", "server"}), "attr_probe": frozenset({"server"})}
        )
        collection = model.participant_refs(registry)
        assert collection == (server("attr_probe"), server("attr_query"))


class TestReceivingRoles:
    def test_every_server_takes_a_clean_opening_ask(self, registry):
        hits = receiving_roles(tuple(sorted(server_collection())), registry, ASK)
        assert list(hits) == [server(pid) for pid in SERVER_PROTOCOLS]
        for ref, enabled in hits.items():
            machine = registry[ref.protocol].roles[ref.role]
            assert enabled == [
                t for t in machine.transitions_from(machine.initial_state)
                if t.trigger.kind == "receive"
            ]

    def test_corrupted_opening_ask_finds_no_takers(self, registry):
        broken = msg("ask-one", {"attribute": 9, "document": "d4"}, sender="q2")
        assert receiving_roles(tuple(sorted(server_collection())), registry, broken) == {}

    def test_only_surviving_roles_answer(self, registry):
        collection = server_collection()
        collection.discard(server("attr_digest"))
        collection.discard(server("attr_lookup"))
        hits = receiving_roles(tuple(sorted(collection)), registry, ASK)
        assert list(hits) == [server("attr_probe"), server("attr_query")]


# ---------------------------------------------------------------------------
# Purges
# ---------------------------------------------------------------------------


def content_error_from_initiator() -> InteractionError:
    return InteractionError(
        kind=WRONG_CONTENT,
        location=2,
        offending=BAD_TELL,
        detected_by=INITIATOR_DETECTED,
    )


class TestInitiatorDetectedPurge:
    """The counterpart rejected our second record's emission: the purge
    reads the culprit, aq-answer fired by the change of q, off that
    record."""

    def test_content_error_drops_wrong_shape_and_culprit_sharers(self, registry):
        collection = server_collection()
        error = content_error_from_initiator()
        removed, kept = purge_collection(collection, registry, server_journal().records, error)
        # attr_lookup only answers with inserts and sorries, so it could
        # never have produced the rejected tell: useless here.  The
        # attr_query server recomputes the tell with the method that
        # already failed once.  Both go.
        assert removed == [server("attr_lookup"), server("attr_query")]
        assert list(kept) == [server("attr_digest"), server("attr_probe")]

    def test_active_role_is_handled_by_the_caller_not_the_purge(self, registry):
        collection = server_collection()
        collection.discard(server("attr_query"))
        error = content_error_from_initiator()
        removed, kept = purge_collection(collection, registry, server_journal().records, error)
        assert removed == [server("attr_lookup")]
        assert list(kept) == [server("attr_digest"), server("attr_probe")]

    def test_structure_error_drops_roles_able_to_repeat_it(self, registry):
        # The counterpart could not even place an insert message.  Any
        # role that can emit one at this point would fail the same way;
        # the tell-speaking servers are safe.
        error = InteractionError(
            kind=WRONG_STRUCTURE,
            location=2,
            offending=msg("insert", {"fact": "x"}, reply_with="c1.1"),
            detected_by=INITIATOR_DETECTED,
        )
        collection = server_collection()
        removed, kept = purge_collection(collection, registry, server_journal().records, error)
        assert removed == [server("attr_digest"), server("attr_lookup")]
        assert list(kept) == [server("attr_probe"), server("attr_query")]


class TestParticipantDetectedPurge:
    """Our own reception failed; survivors must be able to take it."""

    def test_corrupted_follow_up_ask_empties_the_collection(self, registry):
        collection = server_collection()
        collection.discard(server("attr_query"))
        prefix = server_journal().records  # both records stand
        error = InteractionError(
            kind=WRONG_CONTENT,
            location=3,
            offending=msg("ask-one", {"attribute": 7, "document": "d4"}, sender="q2"),
            detected_by=PARTICIPANT_DETECTED,
        )
        removed, kept = purge_collection(collection, registry, prefix, error)
        # attr_lookup and attr_digest cannot replay the recorded tell at
        # all; attr_probe replays but chokes on the same broken ask.
        assert removed == [
            server("attr_digest"),
            server("attr_lookup"),
            server("attr_probe"),
        ]
        assert kept == {}
        with pytest.raises(NoViableRoleError):
            select_replacement_role(kept, registry, error, Random(1))

    def test_a_kept_role_comes_with_the_states_it_replayed(self, registry):
        # after the ask and its tell, both tell-speaking servers are back
        # in p0, ready for a follow-up ask; the other two cannot replay
        # the tell and are dropped
        error = InteractionError(
            kind=WRONG_CONTENT,
            location=3,
            offending=msg("ask-one", {"attribute": "size", "document": "d4"}, sender="q2"),
            detected_by=PARTICIPANT_DETECTED,
        )
        records = server_journal().records
        removed, kept = purge_collection(server_collection(), registry, records, error)
        assert removed == [server("attr_digest"), server("attr_lookup")]
        assert kept == {
            server("attr_probe"): frozenset({"p0"}),
            server("attr_query"): frozenset({"p0"}),
        }


def _optional_nudge_protocol(protocol_id: str, hears_nudges: bool) -> Protocol:
    schemas = {
        "ask": MessageSchema(
            schema_id="ask",
            performative="ask-one",
            content_pattern={"attribute": "?string", "document": "?string"},
        ),
        "reply": MessageSchema(
            schema_id="reply", performative="tell", content_pattern={"value": "?string"}
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
    if hears_nudges:
        schemas["nudge"] = MessageSchema(
            schema_id="nudge", performative="request", content_pattern={"note": "?string"}
        )
        transitions.append(
            Transition(
                "p0",
                Trigger(kind="receive", schema_id="nudge"),
                Action(kind="none"),
                "p0",
                f"{protocol_id}-heed",
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
        capability_tags=frozenset({"nudging"}),
        schemas=schemas,
        roles={"server": machine},
    )


class TestParticipantPurgeDiscriminates:
    def setup_method(self):
        self.registry = {
            "deaf": _optional_nudge_protocol("deaf", hears_nudges=False),
            "keen": _optional_nudge_protocol("keen", hears_nudges=True),
        }

    def purge(self, kind: str, offending: Message) -> tuple[list[RoleRef], list[RoleRef]]:
        collection = {server("deaf"), server("keen")}
        error = InteractionError(
            kind=kind, location=1, offending=offending, detected_by=PARTICIPANT_DETECTED
        )
        removed, kept = purge_collection(collection, self.registry, [], error)
        assert set(kept.values()) <= {frozenset({"p0"})}  # the empty prefix leaves p0
        return list(kept), removed

    def test_structure_error_keeps_structural_receivers(self):
        nudge = msg("request", {"note": 7}, sender="q2")
        kept, removed = self.purge(WRONG_STRUCTURE, nudge)
        assert removed == [server("deaf")]
        assert kept == [server("keen")]

    def test_content_error_demands_full_reception(self):
        nudge = msg("request", {"note": 7}, sender="q2")
        kept, removed = self.purge(WRONG_CONTENT, nudge)
        assert removed == [server("deaf"), server("keen")]
        assert kept == []

    def test_content_error_keeps_roles_that_swallow_the_message(self):
        nudge = msg("request", {"note": "go on"}, sender="q2")
        kept, removed = self.purge(WRONG_CONTENT, nudge)
        assert removed == [server("deaf")]
        assert kept == [server("keen")]


# ---------------------------------------------------------------------------
# Replacement choice
# ---------------------------------------------------------------------------


def replayed(collection: set[RoleRef], registry, prefix) -> dict[RoleRef, frozenset[str]]:
    """Each role of ``collection``, in role order, with the states it
    replays ``prefix`` to: what a purge that kept them all hands on."""
    return {
        ref: replay_states(registry[ref.protocol].roles[ref.role], registry[ref.protocol], prefix)
        for ref in sorted(collection)
    }


class TestReplacementChoice:
    def survivors(self) -> set[RoleRef]:
        collection = server_collection()
        collection.discard(server("attr_lookup"))
        collection.discard(server("attr_query"))
        return collection

    def test_content_error_prefers_the_role_with_more_ways_out(self, registry):
        # attr_probe still has its give-up message pending (weak: it can
        # only end the interaction); attr_digest loops forever and has
        # none.  The probe wins on count 1 against 0, whatever the seed.
        kept = replayed(self.survivors(), registry, server_journal().records[:1])
        error = content_error_from_initiator()
        for seed in range(25):
            picked = select_replacement_role(kept, registry, error, Random(seed))
            assert picked == server("attr_probe")

    def test_equal_counts_fall_to_the_seeded_draw(self, registry):
        collection = server_collection()
        collection.discard(server("attr_digest"))
        collection.discard(server("attr_query"))
        kept = replayed(collection, registry, server_journal().records[:1])
        error = content_error_from_initiator()
        picks = {
            select_replacement_role(kept, registry, error, Random(seed)) for seed in range(30)
        }
        assert picks == {server("attr_lookup"), server("attr_probe")}

    def test_structure_errors_always_draw(self, registry):
        error = InteractionError(
            kind=WRONG_STRUCTURE,
            location=2,
            offending=msg("scream", {"value": "x"}),
            detected_by=INITIATOR_DETECTED,
        )
        kept = replayed(self.survivors(), registry, server_journal().records[:1])
        picks = {
            select_replacement_role(kept, registry, error, Random(seed)) for seed in range(30)
        }
        assert picks == {server("attr_digest"), server("attr_probe")}

    def test_exhausted_collection_raises(self, registry):
        with pytest.raises(NoViableRoleError):
            select_replacement_role({}, registry, content_error_from_initiator(), Random(0))


# ---------------------------------------------------------------------------
# Method graphs
# ---------------------------------------------------------------------------


class TestMethodGraph:
    def test_querier_graph(self, registry):
        graph = method_graph(registry["attr_query"].roles["querier"])
        assert graph.initial == "aq-open"
        assert graph.follow == {
            "aq-open": frozenset({"aq-first-answer", "aq-refused"}),
            "aq-first-answer": frozenset({"aq-follow-up"}),
            "aq-refused": frozenset(),
            "aq-follow-up": frozenset({"aq-final-answer", "aq-refused-late"}),
            "aq-final-answer": frozenset(),
            "aq-refused-late": frozenset(),
        }

    def test_server_graph_loops(self, registry):
        graph = method_graph(registry["attr_query"].roles["server"])
        assert graph.initial == "aq-take"
        assert graph.follow["aq-take"] == frozenset({"aq-answer", "aq-bail"})
        assert graph.follow["aq-answer"] == frozenset({"aq-take"})
        assert graph.follow["aq-bail"] == frozenset()


# ---------------------------------------------------------------------------
# Recovery points
# ---------------------------------------------------------------------------


DUMMY = msg("tell", {"value": "x"})


def chain_graph(*methods: str) -> MethodGraph:
    follow = {m: frozenset({n}) for m, n in zip(methods, methods[1:])}
    follow[methods[-1]] = frozenset()
    return MethodGraph(initial=methods[0], follow=follow)


def record(seq: int, method: str, is_message: bool) -> JournalRecord:
    input_event = DUMMY if is_message else DataChange("v", seq)
    return JournalRecord(method=method, input_event=input_event)


class TestRecoveryPoints:
    def test_three_step_history_with_one_reception(self):
        records = [record(1, "m1", False), record(2, "m2", True), record(3, "m3", False)]
        assert compute_recovery_points(records, chain_graph("m1", "m2", "m3")) == (2, 3)

    def test_empty_history_restarts(self):
        assert compute_recovery_points([], chain_graph("m1")) == (1, 1)

    def test_foreign_first_record_restarts(self):
        records = [record(1, "x1", True)]
        assert compute_recovery_points(records, chain_graph("m1", "m2")) == (1, 1)

    def test_walk_stops_at_the_first_break(self):
        records = [record(1, "m1", False), record(2, "m3", True), record(3, "m2", False)]
        graph = chain_graph("m1", "m2", "m3")
        assert compute_recovery_points(records, graph) == (1, 1)

    def test_completed_query_journal(self, registry):
        graph = method_graph(registry["attr_query"].roles["querier"])
        records = [
            record(1, "aq-open", False),
            record(2, "aq-first-answer", True),
            record(3, "aq-follow-up", False),
            record(4, "aq-final-answer", True),
        ]
        assert compute_recovery_points(records, graph) == (3, 4)

    def test_replacement_server_cannot_reuse_the_old_journal(self, registry):
        # The journal was written by the attr_query server; the probe's
        # methods never match, so both sides restart from scratch.
        graph = method_graph(registry["attr_probe"].roles["server"])
        records = server_journal().records
        assert compute_recovery_points(records, graph) == (1, 1)
        assert clamped_recovery_points(records, graph, location=2) == (1, 1)

    def test_clamp_caps_the_walk_at_the_failure(self):
        records = [record(1, "m1", False), record(2, "m2", True), record(3, "m3", False)]
        graph = chain_graph("m1", "m2", "m3")
        assert clamped_recovery_points(records, graph, location=2) == (2, 2)
        assert clamped_recovery_points(records, graph, location=1) == (1, 1)
        assert clamped_recovery_points(records, graph, location=9) == (2, 3)

    @settings(max_examples=300)
    @given(journal_graph_instances())
    def test_matches_the_path_oracle(self, instance):
        plain_records, initial, follow = instance
        records = [
            record(seq, method, is_message)
            for seq, (method, is_message) in enumerate(plain_records, start=1)
        ]
        graph = MethodGraph(initial=initial, follow=follow)
        assert compute_recovery_points(records, graph) == oracle_recovery_points(
            plain_records, initial, follow
        )


# ---------------------------------------------------------------------------
# Truncation and re-firing
# ---------------------------------------------------------------------------


class TestTruncation:
    def test_own_journal_keeps_records_before_the_point(self):
        journal = server_journal()
        truncate_own(journal, 2)
        assert [r.method for r in journal.records] == ["aq-take"]

    def test_point_one_wipes_everything(self):
        journal = server_journal()
        truncate_own(journal, 1)
        assert len(journal) == 0

    def test_point_past_the_end_keeps_everything(self):
        journal = server_journal()
        truncate_own(journal, 3)
        assert len(journal) == 2

    def test_own_point_out_of_range(self):
        journal = server_journal()
        with pytest.raises(PointOutOfRangeError):
            truncate_own(journal, 0)
        with pytest.raises(PointOutOfRangeError):
            truncate_own(journal, 4)

    def emitting_journal(self) -> Journal:
        journal = Journal(CONV, "q2", "c1")
        journal.records += [
            JournalRecord("open", DataChange("task", "t2"), ASK),
            JournalRecord("think", DataChange("more", 1), DataChange("note", 2)),
            JournalRecord("answer", DataChange("more", 2), GOOD_TELL),
        ]
        return journal

    def test_counterpart_keeps_through_the_nth_emission(self):
        journal = self.emitting_journal()
        truncate_counterpart(journal, 1)
        assert [r.method for r in journal.records] == ["open"]

    def test_counterpart_keeps_the_changes_before_an_emission(self):
        journal = self.emitting_journal()
        truncate_counterpart(journal, 2)
        assert [r.method for r in journal.records] == ["open", "think", "answer"]

    def test_counterpart_point_out_of_range(self):
        with pytest.raises(PointOutOfRangeError):
            truncate_counterpart(self.emitting_journal(), 0)
        with pytest.raises(PointOutOfRangeError):
            truncate_counterpart(self.emitting_journal(), 3)


class TestRefireInput:
    def test_replays_the_recorded_input(self):
        records = server_journal().records
        assert refire_input(records, 1, None) == ASK
        assert refire_input(records, 2, None) == DataChange("q", ASK.content)

    def test_feeds_the_offending_message_past_the_end(self):
        records = server_journal().records
        assert refire_input(records, 3, BAD_TELL) == BAD_TELL

    def test_past_the_end_without_a_message_fails(self):
        with pytest.raises(PointOutOfRangeError):
            refire_input(server_journal().records, 3, None)

    def test_far_out_points_fail_even_with_a_message(self):
        records = server_journal().records
        with pytest.raises(PointOutOfRangeError):
            refire_input(records, 4, BAD_TELL)
        with pytest.raises(PointOutOfRangeError):
            refire_input(records, 0, BAD_TELL)


# ---------------------------------------------------------------------------
# A sequential recovery end to end
# ---------------------------------------------------------------------------


class TestSequentialRewind:
    """The replacement server retraces the ``take`` record, so the
    recovery keeps it and re-fires the data change that ran ``answer``."""

    def run(self, seed: int):
        rt = rewind_runtime(seed)
        initiator = rt.agents["q"]
        at_recover: list[list[str]] = []
        handle = initiator.on_message

        def spy(runtime, msg):
            handle(runtime, msg)
            if msg.performative == RECOVER_AT:
                at_recover.append([r.method for r in initiator.journal.records])

        initiator.on_message = spy
        trace = rt.run_until_quiescent()
        return rt, trace, at_recover

    def test_a_rejected_answer_rewinds_to_the_middle_of_the_journal(self):
        replacements = set()
        for seed in (0, 1):
            rt, trace, at_recover = self.run(seed)
            (recovery,) = [e.payload for e in trace if e.kind == "recovery"]
            assert recovery["action"] == "replacement" and recovery["purged"] == []
            assert recovery["points"] == [1, 2]
            # the initiator keeps its journal up to its first emission
            assert at_recover == [["ask"]]
            thread = rt.agents["c"].threads["t/c"]
            role = RoleRef.parse(recovery["role"])
            assert (thread.driver.protocol.protocol_id, thread.driver.machine.role_id) == role
            assert role not in thread.collection
            # the kept take record rebuilt q, and answer ran again from it
            assert [r.method for r in thread.driver.journal.records] == ["take", "answer"]
            opening = thread.driver.journal.records[0].input_event
            assert thread.driver.journal.records[1].input_event == DataChange("q", opening.content)
            answered = thread.driver.journal.records[1].output
            assert rt.agents["q"].outcome == ("concluded", {"final_state": "done"})
            assert [r.method for r in rt.agents["q"].journal.records] == [
                "ask",
                f"got-{answered.performative}",
            ]
            replacements.add(recovery["role"])
        # the two seeds start from different servers
        assert replacements == {"rw_a:server", "rw_b:server"}


#: performatives of the sends that are no domain message
NON_DOMAIN = RESERVED_PERFORMATIVES | {WAKE}


@pytest.mark.parametrize("mode", [SEQUENTIAL, MIXED])
def test_reply_tags_are_never_reused(mode):
    """Each side tags its domain sends ``<sender>.1``, ``<sender>.2``, ...
    from its journal, so within one conversation the number only grows:
    across sequential replacements and mixed retags alike."""
    replacements = 0
    for seed in range(50):
        doc = individual_scenario(Random(seed), mode, 8, max_faults=3)
        trace = build_runtime(scenario_from_dict(doc)).run_until_quiescent()
        last: dict[tuple[str, str], int] = {}
        for event in trace:
            payload = event.payload
            if event.kind == "recovery" and payload["action"] == "replacement":
                replacements += 1
            if event.kind != "send" or payload["performative"] in NON_DOMAIN:
                continue
            sender, _, number = payload["tag"].rpartition(".")
            assert sender == payload["from"] and number.isdigit(), (seed, payload)
            key = payload["from"], payload["conversation"]
            assert int(number) > last.get(key, 0), (seed, payload)
            last[key] = int(number)
    assert replacements > 50
