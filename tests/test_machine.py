"""Role execution helpers and interaction journals."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings

from parley.journal import DataChange, Journal, JournalRecord
from parley.machine import (
    MachineDriver,
    enabled_for_message,
    enabled_for_variable,
    replay_states,
    sends_set_off,
    weak_schema_ids,
)
from parley.mixed import instantiate_all, select_outgoing
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

from .generators import CASCADE_SCHEMAS, cascade_machines
from .helpers import one_one_protocol


def _msg(performative, content, sender="q1", receiver="d1", reply_with=None):
    return Message(
        performative=performative,
        content=content,
        language="kv",
        ontology="core",
        sender=sender,
        receiver=receiver,
        conversation_id="t/x",
        reply_with=reply_with,
    )


PROTOCOL = one_one_protocol("p")
ASKER = PROTOCOL.roles["asker"]
REPLIER = PROTOCOL.roles["replier"]


def test_enabled_for_message_checks_content_by_default():
    structurally_fine = _msg("ask-one", {"q": 17})
    assert enabled_for_message(REPLIER, PROTOCOL, "p0", structurally_fine) == []
    hits = enabled_for_message(
        REPLIER, PROTOCOL, "p0", structurally_fine, structural_only=True
    )
    assert [t.method for t in hits] == ["p-answer"]


def test_enabled_for_message_in_wrong_state_is_empty():
    msg = _msg("ask-one", {"q": "ok"})
    assert enabled_for_message(REPLIER, PROTOCOL, "done", msg) == []


def test_enabled_for_variable():
    assert [t.method for t in enabled_for_variable(ASKER, "s0", "task")] == ["p-send-ask"]
    assert enabled_for_variable(ASKER, "s0", "other") == []


def _asker_records():
    ask = _msg("ask-one", {"q": "height"}, sender="q1", receiver="d1")
    reply = _msg("tell", {"a": "tall"}, sender="d1", receiver="q1")
    return [
        # method names intentionally off: replay matches on events only
        JournalRecord("whatever-1", DataChange("task", "t"), ask),
        JournalRecord("whatever-2", reply),
    ]


def _replayed(machine, protocol, records):
    """The state a driver of ``machine`` replays ``records`` into."""
    ref = RoleRef(protocol.protocol_id, machine.role_id)
    driver = MachineDriver(ref, {ref.protocol: protocol}, Journal("t/x", "q1", "d1"))
    driver.journal.records += records
    driver.replay()
    return driver.state


def test_replay_follows_events_not_method_names():
    records = _asker_records()
    assert replay_states(ASKER, PROTOCOL, records) == frozenset({"done"})
    assert replay_states(ASKER, PROTOCOL, records[:1]) == frozenset({"s1"})
    assert _replayed(ASKER, PROTOCOL, records) == "done"


def test_replay_rejects_impossible_histories():
    records = _asker_records()[::-1]  # reception before the send
    assert replay_states(ASKER, PROTOCOL, records) == frozenset()
    # a driver that cannot replay its journal stands in the initial state
    assert _replayed(ASKER, PROTOCOL, records) == ASKER.initial_state


def test_replay_send_must_match_schema_content():
    bad_ask = _msg("ask-one", {"q": 99}, sender="q1", receiver="d1")
    records = [JournalRecord("m", DataChange("task", "t"), bad_ask)]
    assert replay_states(ASKER, PROTOCOL, records) == frozenset()


def test_replay_matches_what_the_action_made():
    """A record's output must be what its transition's action makes: the
    message for a send, nothing for no action."""
    sent, received = _asker_records()
    for records in (
        [sent._replace(output=None)],
        [sent._replace(output=DataChange("task", "t"))],
        [sent, received._replace(output=sent.output)],
    ):
        assert replay_states(ASKER, PROTOCOL, records) == frozenset()


def test_replay_data_change_must_write_the_named_variable():
    protocol = _lingering_server()
    server = protocol.roles["server"]
    ask = _msg("ask-one", {"q": "height"})
    for variable, replayed in (("q", {"p1"}), ("r", set())):
        records = [JournalRecord("take", ask, DataChange(variable, "h"))]
        assert replay_states(server, protocol, records) == frozenset(replayed)


def _forked_machine():
    # two transitions accept the same reception; one branch dead-ends
    schemas = {
        "go": MessageSchema("go", "inform", {"v": "?string"}),
        "on": MessageSchema("on", "inform", {"w": "?string"}),
    }
    machine = RoleStateMachine(
        role_id="forked",
        kind=RoleKind.PARTICIPANT,
        multiplicity=1,
        states=frozenset({"s0", "a", "b", "c"}),
        initial_state="s0",
        terminal_states=frozenset({"c"}),
        transitions=(
            Transition("s0", Trigger("receive", schema_id="go"), Action("none"), "a", "m-a"),
            Transition("s0", Trigger("receive", schema_id="go"), Action("none"), "b", "m-b"),
            Transition("b", Trigger("receive", schema_id="on"), Action("none"), "c", "m-c"),
        ),
    )
    protocol = Protocol(
        protocol_id="fork",
        capability_tags=frozenset(),
        schemas=schemas,
        roles={"forked": machine},
    )
    return machine, protocol


def test_replay_state_recovers_from_greedy_dead_end():
    machine, protocol = _forked_machine()
    records = [
        JournalRecord("x", _msg("inform", {"v": "1"})),
        JournalRecord("y", _msg("inform", {"w": "2"})),
    ]
    # a greedy first match would go to "a" and starve; replay follows
    # every branch, so the b -> c path is found
    assert replay_states(machine, protocol, records) == frozenset({"c"})
    assert _replayed(machine, protocol, records) == "c"
    # while both branches stand, the least state by name is the one
    assert _replayed(machine, protocol, records[:1]) == "a"


def test_weak_schemas_end_the_interaction():
    assert weak_schema_ids(ASKER) == frozenset({"reply"})
    # the replier's single transition both takes "ask" and sends
    # "reply" into its terminal state, so both are weak for it
    assert weak_schema_ids(REPLIER) == frozenset({"ask", "reply"})


def _lingering_server() -> Protocol:
    """A server whose variable ``q`` outlives the transition that wrote it.

    ``take`` writes ``q`` and ``note`` writes ``r`` from it.  In ``p2``
    ``answer`` fires on ``r``, the variable just written, while
    ``early`` fires on ``q``, written one transition before; after the
    answer, ``again`` fires on ``q`` too.  By the one cascade rule only
    ``r`` counts in ``p2``, and a send writes nothing, so the cascade
    stops in ``p3``.
    """
    def internal(source, variable, action, target, method):
        return Transition(source, Trigger("internal", variable=variable), action, target, method)

    transitions = (
        Transition(
            "p0", Trigger("receive", schema_id="ask"), Action("data_change", variable="q"),
            "p1", "take",
        ),
        internal("p1", "q", Action("data_change", variable="r"), "p2", "note"),
        internal("p2", "r", Action("send", schema_id="tell"), "p3", "answer"),
        internal("p2", "q", Action("send", schema_id="tell"), "p3", "early"),
        internal("p3", "q", Action("send", schema_id="extra"), "done", "again"),
    )
    server = RoleStateMachine(
        role_id="server",
        kind=RoleKind.PARTICIPANT,
        multiplicity=1,
        states=frozenset({"p0", "p1", "p2", "p3", "done"}),
        initial_state="p0",
        terminal_states=frozenset({"done"}),
        transitions=transitions,
    )
    schemas = (
        MessageSchema("ask", "ask-one", {"q": "?string"}),
        MessageSchema("tell", "tell", {"a": "?string"}),
        MessageSchema("extra", "inform", {"a": "?string"}),
    )
    return Protocol(
        protocol_id="linger",
        capability_tags=frozenset(),
        schemas={schema.schema_id: schema for schema in schemas},
        roles={"server": server},
    )


@pytest.mark.parametrize("seed", range(6))
def test_the_driver_and_a_zone_fire_one_cascade_rule(seed):
    """A sequential driver and a one-instance control zone journal the
    same records for the same reception."""
    protocol = _lingering_server()
    registry = {"linger": protocol}
    ref = RoleRef("linger", "server")
    ask = _msg("ask-one", {"q": "height"})

    driver = MachineDriver(ref, registry, Journal("t/x", "d1", "q1"))
    sent = driver.receive(ask, driver.enabled_for(ask), Random(seed))
    takers = {ref: enabled_for_message(protocol.roles["server"], protocol, "p0", ask)}
    zone = instantiate_all(takers, registry, Journal("t/x", "d1", "q1"), ask, Random(seed))
    assert select_outgoing(zone, Random(seed)) == sent

    def journaled(journal):
        return [(r.method, r.input_event, r.output) for r in journal.records]

    assert journaled(driver.journal) == journaled(zone.journal)
    q, r = DataChange("q", ask.content), DataChange("r", ask.content)
    assert journaled(driver.journal) == [
        ("take", ask, q),
        ("note", q, r),
        ("answer", r, sent),
    ]
    assert driver.state == zone.instances[ref].state == "p3"


def _cascade_protocol(transitions) -> Protocol:
    """A protocol whose one role ``r`` runs the plain transitions that
    :func:`cascade_machines` draws."""
    built = tuple(
        Transition(
            source,
            Trigger("internal", variable=variable),
            Action(kind) if kind == "none" else
            Action(kind, **{"schema_id" if kind == "send" else "variable": arg}),
            target,
            method,
        )
        for source, variable, (kind, arg), target, method in transitions
    )
    states = frozenset({t.from_state for t in built} | {t.to_state for t in built})
    role = RoleStateMachine(
        role_id="r",
        kind=RoleKind.PARTICIPANT,
        multiplicity=1,
        states=states | {"s0"},
        initial_state="s0",
        terminal_states=frozenset(),
        transitions=built,
    )
    return Protocol(
        protocol_id="cascade",
        capability_tags=frozenset(),
        schemas={s: MessageSchema(s, s, {"v": "?string"}) for s in CASCADE_SCHEMAS},
        roles={"r": role},
    )


@settings(max_examples=300, deadline=None)
@given(cascade_machines())
def test_every_send_fire_makes_is_one_the_walk_finds(instance):
    """``fire`` draws one branch of the cascade an input sets off and
    :func:`sends_set_off` walks them all, by one rule: over several
    seeds, each message fired is sent by a transition the walk returns.
    Where no state has two transitions on one variable, the cascade has
    one branch, and the walk finds exactly its send, or none."""
    transitions, variable = instance
    registry = {"cascade": _cascade_protocol(transitions)}
    driver = MachineDriver(RoleRef("cascade", "r"), registry, Journal("t/x", "d1", "q1"))
    change = DataChange(variable, "v")
    enabled = driver.enabled_for(change)
    walked = sends_set_off(driver.machine, enabled)
    triggers = [(t[0], t[1]) for t in transitions]
    one_branch = len(set(triggers)) == len(triggers)
    for seed in range(6):
        if not enabled:
            break
        driver.state = "s0"
        last, records, sent = driver.fire(enabled, change, Random(seed))
        if sent is None:
            assert last.action.kind != "send"
            assert not one_branch or walked == set()
        else:
            assert last in walked and records[-1].output == sent
            assert sent.performative == last.action.schema_id
            assert not one_branch or walked == {last}


class TestJournal:
    def test_records_and_tags(self):
        journal = Journal("t/d1", "d1", "q1")
        r1 = JournalRecord("m1", DataChange("task", "t"))
        r2 = JournalRecord("m2", _msg("tell", {"a": "x"}))
        journal.records += [r1, r2]
        assert len(journal) == 2
        assert [journal.tag(), journal.tag()] == ["d1.1", "d1.2"]
        journal.keep_first(0)
        assert journal.tag() == "d1.3"  # a cut journal never reuses a tag

    def test_keep_first_removes_only_suffixes(self):
        journal = Journal("t/d1", "d1", "q1")
        journal.records += [JournalRecord(f"m{i}", DataChange("v", i)) for i in range(4)]
        journal.keep_first(2)
        assert [r.method for r in journal.records] == ["m0", "m1"]
        with pytest.raises(ValueError):
            journal.keep_first(3)
        journal.keep_first(0)
        assert len(journal) == 0
