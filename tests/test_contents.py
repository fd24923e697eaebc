"""Message contents never change once sent, and equal ones are one object.

A trace event keeps the content its message was sent with, not a copy,
and ``render_trace`` encodes each distinct content object once.  Both
rest on the rule that no agent, fault or bus step changes a content
after it is sent: the first test deep-copies every content as it is
sent and compares it with its copy once the run is over.  The second
pins, by count, that a broadcast call is one content for all its
receivers, that participants answer it with one ready-to-select
object per offered role list, whatever their models, that every refusal for one reason is one
unable-to-select object, and that an initiator reads each distinct
offer content once.
"""

from __future__ import annotations

import copy
import gc
from collections import defaultdict
from random import Random

import pytest

from parley.agents import SelectionParticipant, answer_table
from parley.model import (
    CALL_FOR_COLLABORATION,
    UNABLE_TO_SELECT,
    InteractionModel,
    Message,
    load_protocol,
)
from parley.runtime import AgentBase, SimRuntime
from parley.scenario import (
    MIXED,
    SEQUENTIAL,
    build_runtime,
    scenario_from_dict,
    summarize,
)

from .helpers import joint_fanout_scenario, record_offer_reads, sample_scenarios


@pytest.mark.parametrize("family", ["bundled", "joint", SEQUENTIAL, MIXED])
def test_no_content_changes_after_it_is_sent(family, monkeypatch):
    noted: list[tuple[object, object]] = []
    schedule_send = SimRuntime.schedule_send

    def copying(rt, msg, delay=0):
        noted.append((msg.content, copy.deepcopy(msg.content)))
        schedule_send(rt, msg, delay)

    monkeypatch.setattr(SimRuntime, "schedule_send", copying)
    for scenario in sample_scenarios(family):
        before = len(noted)
        build_runtime(scenario).run_until_quiescent()
        changed = [sent for sent, kept in noted[before:] if sent != kept]
        assert changed == [], scenario.scenario_id
    assert len(noted) > 50


def test_a_broadcast_and_equal_offers_share_one_content():
    doc = joint_fanout_scenario(Random(7), 9, 60, 30)
    scenario = scenario_from_dict(doc)
    runtime = build_runtime(scenario)
    trace = runtime.run_until_quiescent()
    assert {t.outcome for t in summarize(scenario, runtime, trace).tasks} == {"selected"}
    sends = defaultdict(list)
    for event in trace:
        if event.kind == "send":
            sends[event.payload["performative"]].append(event.payload)

    def objects(performative):
        return len(sends[performative]), len({id(p["content"]) for p in sends[performative]})

    # one call content per round: each round sends one deadline wake
    rounds = sum(1 for p in sends["wake"] if "round" in p["content"])
    assert rounds == 9
    assert objects("call-for-collaboration") == (183, rounds)
    calls_by_round: dict[tuple, set] = defaultdict(set)
    for p in sends["call-for-collaboration"]:
        calls_by_round[p["from"], p["content"]["protocol"]].add(id(p["content"]))
    assert all(len(ids) == 1 for ids in calls_by_round.values())
    # one ready-to-select object per offered role list, whatever the
    # model: 165 replies, 8 objects
    by_roles: dict[tuple, set] = defaultdict(set)
    for p in sends["ready-to-select"]:
        by_roles[tuple(p["content"]["roles"])].add(id(p["content"]))
    assert objects("ready-to-select") == (165, len(by_roles)) == (165, 8)
    assert all(len(ids) == 1 for ids in by_roles.values())
    # one notice per role picked by largest set, one stop content per close
    assert objects("notify-assignment") == (93, 15)
    assert objects("stop-selection") == (72, 3)
    # one refusal content per reason: every refusal here is an unwilling one
    assert objects("unable-to-select") == (18, 1)


@pytest.mark.parametrize(
    "content, willing, enacts, reason",
    [
        ({"task": "t1"}, True, {"replier"}, "malformed-call"),
        ({"protocol": "ips", "task": "t1"}, False, {"replier"}, "unwilling"),
        ({"protocol": "ips", "task": "t1"}, True, set(), "no-role"),
    ],
    ids=["malformed-call", "unwilling", "no-role"],
)
def test_a_refusal_sends_one_content_per_reason(content, willing, enacts, reason):
    registry = {"ips": load_protocol("ips")}
    model = InteractionModel({"ips": frozenset(enacts)})
    rt = SimRuntime(seed=0)
    rt.register(AgentBase("q1"))
    for agent in ("d1", "d2"):
        answers = answer_table(model.participant_refs(registry), willing, frozenset(), registry, {})
        rt.register(SelectionParticipant(agent, answers))
        call = Message(CALL_FOR_COLLABORATION, dict(content), "kv", "core", "q1", agent, "t1!select")
        rt.schedule_send(call)
    start = len(rt.trace)
    rt.run_until_quiescent()
    sent = [p for _, kind, p in rt.trace[start:] if kind == "send"]
    assert [(p["from"], p["performative"], p["content"]) for p in sent] == [
        (agent, UNABLE_TO_SELECT, {"reason": reason}) for agent in ("d1", "d2")
    ]
    assert sent[0]["content"] is sent[1]["content"]


def test_an_initiator_reads_each_distinct_offer_once(monkeypatch):
    made, alive = record_offer_reads(monkeypatch)
    scenario = scenario_from_dict(joint_fanout_scenario(Random(7), 9, 60, 30))
    trace = build_runtime(scenario).run_until_quiescent()
    sent = {e.payload["seq"]: e.payload for e in trace if e.kind == "send"}
    read = [
        sent[e.payload["seq"]] for e in trace
        if e.kind == "deliver" and e.payload["performative"] == "ready-to-select"
    ]
    # each initiator reads each content object once, and equal role lists
    # are one object, so it reads each distinct role list once
    distinct = {(p["to"], id(p["content"])) for p in read}
    assert len({(p["to"], tuple(p["content"]["roles"])) for p in read}) == 24
    assert (len(read), len(distinct), len(made)) == (165, 24, 24)
    assert {(to, content) for to, _, content in made} == distinct
    # the offers read go with their initiators: none outlives the run
    del trace, sent, read
    gc.collect()
    assert alive() == 0
