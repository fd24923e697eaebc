"""Per-message work happens once, and nothing kept for it outlives a run.

Counted, not timed: the matcher is wrapped and every call recorded, so
a handler that matches the same delivery against the same role twice
shows up as a repeated call.  The same holds for the joint side: a
scenario's ``enacts`` objects are read once per distinct value, the
roles a participant offers are computed once per interaction model,
participants with equal (model, willingness) answer from one table and
equal role lists are sent in one content, an initiator parses each
distinct offer content once, the name comparisons that admit a reply
do not grow with the size of the call, and a role allocation runs a
bounded number of matchings whatever the size of the pool.  The lifetime checks drop a finished run
and require its machines and agents to be collected, which rules out
any cache that holds on to them from module level, and require that
the run left no reference cycle behind for the collector to find.
"""

from __future__ import annotations

import gc
import json
import weakref
from collections import Counter
from random import Random

import pytest

import parley.agents
import parley.individual
import parley.joint
import parley.machine
import parley.mixed
import parley.model
import parley.runtime
import parley.scenario
from parley.agents import SelectionParticipant
from parley.individual import method_graph
from parley.joint import assign_roles_1_n
from parley.machine import weak_schema_ids
from parley.model import (
    READY_TO_SELECT,
    RESERVED_PERFORMATIVES,
    UNABLE_TO_SELECT,
    RoleRef,
    father_order,
    load_protocol,
)
from parley.runtime import WAKE, render_trace
from parley.scenario import (
    MIXED,
    SEQUENTIAL,
    build_runtime,
    parse_scenario,
    scenario_from_dict,
    summarize,
)

from .helpers import (
    individual_scenario,
    joint_fanout_scenario,
    joint_scenario,
    one_n_protocol,
    record_offer_reads,
)


def fault_free(mode: str, servers: tuple[str, ...] | None = None):
    """Twelve tasks and no injected faults; ``servers`` fixes the roles
    every participant enacts (all of them are candidates for a task)."""
    doc = individual_scenario(Random(5), mode, 12)
    doc["faults"] = []
    if servers is not None:
        for agent in doc["agents"]:
            if agent["id"].startswith("c"):
                agent["enacts"] = {p: ["server"] for p in servers}
    return scenario_from_dict(doc)


def record_matches(monkeypatch) -> list[tuple]:
    """Wrap the matcher wherever it is looked up.  One entry per call:
    (machine, state, message, structural only, was the message the
    delivery being handled)."""
    original = parley.machine.enabled_for_message
    deliver = parley.runtime.SimRuntime._deliver
    calls: list[tuple] = []
    delivering: list = [None]

    def counted(machine, protocol, state, msg, structural_only=False):
        calls.append((machine, state, msg, structural_only, msg is delivering[0]))
        return original(machine, protocol, state, msg, structural_only)

    def tracked(runtime, seq, msg):
        delivering[0] = msg  # no faults: the message handed on is this one
        deliver(runtime, seq, msg)

    for module in (parley.machine, parley.individual, parley.mixed, parley.agents):
        if getattr(module, "enabled_for_message", None) is original:
            monkeypatch.setattr(module, "enabled_for_message", counted)
    monkeypatch.setattr(parley.runtime.SimRuntime, "_deliver", tracked)
    return calls


def domain_deliveries(trace) -> list[dict]:
    return [
        e.payload for e in trace
        if e.kind == "deliver"
        and e.payload["performative"] not in RESERVED_PERFORMATIVES
        and e.payload["performative"] != WAKE
    ]


def run_counted(scenario, monkeypatch):
    calls = record_matches(monkeypatch)
    runtime = build_runtime(scenario)
    trace = runtime.run_until_quiescent()
    summary = summarize(scenario, runtime, trace)
    assert {t.outcome for t in summary.tasks} == {"concluded"}
    return trace, calls


@pytest.mark.parametrize("mode", [SEQUENTIAL, MIXED])
def test_each_delivery_is_matched_once(mode, monkeypatch):
    """One candidate role per participant, so no role is ever wrong:
    each domain delivery is matched exactly once, by its receiver."""
    trace, calls = run_counted(fault_free(mode, servers=("attr_query",)), monkeypatch)
    assert not any(
        e.kind == "send" and e.payload["performative"] == "error-notify" for e in trace
    )
    deliveries = domain_deliveries(trace)
    assert len(deliveries) > 12
    assert len(calls) == len(deliveries)
    assert len({id(msg) for _, _, msg, _, _ in calls}) == len(deliveries)
    assert all(during for *_, during in calls)


@pytest.mark.parametrize("mode", [SEQUENTIAL, MIXED])
def test_an_opening_is_matched_once_per_candidate_role(mode, monkeypatch):
    """Four candidate roles per participant: the delivery of a task's
    opening message matches it against each of them once, and the role
    (or roles) taking it reuse that match."""
    servers = ("attr_digest", "attr_lookup", "attr_probe", "attr_query")
    trace, calls = run_counted(fault_free(mode, servers=servers), monkeypatch)
    opening_tags = {}  # conversation -> reply tag of its first domain message
    for e in trace:
        if e.kind == "send" and e.payload["performative"] not in RESERVED_PERFORMATIVES:
            opening_tags.setdefault(e.payload["conversation"], e.payload["tag"])
    assert len(opening_tags) == 12
    per_opening: dict[int, list] = {}
    for machine, state, msg, _, during in calls:
        if during and msg.reply_with == opening_tags[msg.conversation_id]:
            per_opening.setdefault(id(msg), []).append(id(machine))
    assert len(per_opening) == 12
    for machines in per_opening.values():
        assert sorted(machines) == sorted(set(machines))
        assert len(machines) == len(servers)


@pytest.mark.parametrize("mode", [SEQUENTIAL, MIXED])
def test_an_agent_is_wired_with_what_it_enacts(mode, monkeypatch):
    """Twelve tasks on few distinct (initiator model, capabilities): the
    task matcher runs once per distinct pair when the scenario is read
    and once when it is wired, and never while it runs; the participant
    roles of each distinct model are listed once, at wiring."""
    match = parley.model.match_task_to_protocols
    matched: Counter = Counter()

    def counted_match(task, model, registry):
        matched[id(model), task.required_capabilities] += 1
        return match(task, model, registry)

    for module in (parley.model, parley.scenario, parley.agents):
        if getattr(module, "match_task_to_protocols", None) is match:
            monkeypatch.setattr(module, "match_task_to_protocols", counted_match)
    refs = parley.model.InteractionModel.participant_refs
    listed: Counter = Counter()

    def counted_refs(model, registry):
        listed[id(model)] += 1
        return refs(model, registry)

    monkeypatch.setattr(parley.model.InteractionModel, "participant_refs", counted_refs)
    scenario = fault_free(mode)
    models = {spec.agent_id: spec.model for spec in scenario.agents}
    keys = {(id(models[t.initiator]), t.required_capabilities) for t in scenario.tasks}
    assert len(scenario.tasks) == 12 and len(keys) < 12
    assert matched == Counter(dict.fromkeys(keys, 1)) and not listed
    runtime = build_runtime(scenario)
    assert matched == Counter(dict.fromkeys(keys, 2))
    initiators = {t.initiator for t in scenario.tasks}
    participants = [
        spec for spec in scenario.agents
        if spec.agent_id not in initiators and spec.behavior != "silent"
    ]
    distinct = {id(spec.model) for spec in participants}
    assert len(participants) > len(distinct)
    assert listed == Counter(dict.fromkeys(distinct, 1))
    trace = runtime.run_until_quiescent()
    assert {t.outcome for t in summarize(scenario, runtime, trace).tasks} == {"concluded"}
    assert matched == Counter(dict.fromkeys(keys, 2)) and sum(listed.values()) == len(distinct)


def test_offered_roles_are_computed_once_per_model(monkeypatch):
    original = parley.agents.offered_roles
    calls: Counter = Counter()

    def counted(mine, table, registry):
        calls[mine] += 1
        return original(mine, table, registry)

    monkeypatch.setattr(parley.agents, "offered_roles", counted)
    scenario = scenario_from_dict(joint_fanout_scenario(Random(7), 9, 60, 30))
    runtime = build_runtime(scenario)
    trace = runtime.run_until_quiescent()
    summary = summarize(scenario, runtime, trace)
    assert {t.outcome for t in summary.tasks} == {"selected"}
    calls_for_collaboration = sum(
        1 for e in trace
        if e.kind == "deliver" and e.payload["performative"] == "call-for-collaboration"
    )
    assert calls_for_collaboration > 5 * len(calls)
    assert max(calls.values()) == 1


def test_equal_offers_are_one_content_whatever_the_model():
    scenario = scenario_from_dict(joint_fanout_scenario(Random(11), 12, 400, 100))
    runtime = build_runtime(scenario)
    trace = runtime.run_until_quiescent()
    assert {t.outcome for t in summarize(scenario, runtime, trace).tasks} == {"selected"}
    offers = [
        e.payload.message for e in trace
        if e.kind == "send" and e.payload["performative"] == READY_TO_SELECT
    ]
    model_of = {spec.agent_id: spec.model for spec in scenario.agents}
    role_lists = {tuple(m.content["roles"]) for m in offers}
    models = {(id(model_of[m.sender]), tuple(m.content["roles"])) for m in offers}
    # several models offer some of the same lists, and each list is one object
    assert len(offers) > 50 * len(role_lists)
    assert len(models) > len(role_lists)
    assert len({id(m.content) for m in offers}) == len(role_lists)


def test_each_distinct_enacts_is_read_and_wired_once(monkeypatch):
    """Agents with equal ``enacts`` share one checked model, and the
    participants of one model and one willingness share one answer
    table."""
    original = parley.scenario._names_by_key
    read: Counter = Counter()

    def counted(raw, key, where):
        read[key] += 1
        return original(raw, key, where)

    monkeypatch.setattr(parley.scenario, "_names_by_key", counted)
    doc = joint_fanout_scenario(Random(11), 12, 400, 100)
    distinct = {json.dumps(agent["enacts"]) for agent in doc["agents"]}
    assert len(doc["agents"]) > 20 * len(distinct)
    scenario = scenario_from_dict(doc)
    assert read["enacts"] == len(distinct)
    assert len({id(spec.model) for spec in scenario.agents}) == len(distinct)
    runtime = build_runtime(scenario)
    specs = {spec.agent_id: spec for spec in scenario.agents}
    tables: dict[tuple[int, bool], set[int]] = {}
    for agent in runtime.agents.values():
        if isinstance(agent, SelectionParticipant):
            spec = specs[agent.name]
            tables.setdefault((id(spec.model), spec.willing), set()).add(id(agent.answers))
    assert len(tables) > 1 and all(len(ids) == 1 for ids in tables.values())
    assert len(set().union(*tables.values())) == len(tables)


def test_an_initiator_parses_each_distinct_offer_content_once(monkeypatch):
    reads, _ = record_offer_reads(monkeypatch)
    scenario = scenario_from_dict(joint_fanout_scenario(Random(11), 12, 400, 100))
    runtime = build_runtime(scenario)
    trace = runtime.run_until_quiescent()
    assert {t.outcome for t in summarize(scenario, runtime, trace).tasks} == {"selected"}
    # only an offer is parsed, and each (initiator, content) once
    assert {performative for _, performative, _ in reads} == {READY_TO_SELECT}
    parsed = {(initiator, content) for initiator, _, content in reads}
    assert len(parsed) == len(reads)
    sent = {e.payload["seq"]: e.payload for e in trace if e.kind == "send"}
    offers = [
        sent[e.payload["seq"]]
        for e in trace
        if e.kind == "deliver" and e.payload["performative"] == READY_TO_SELECT
    ]
    distinct = {(p["to"], id(p["content"])) for p in offers}
    assert parsed == distinct
    assert len(offers) > 5 * len(reads)


def _admission_comparisons(fanout: int, monkeypatch) -> list[int]:
    """The agent-name comparisons made by each reply an initiator takes
    without closing its round (closing arbitrates, and that is counted
    elsewhere).  Participants get names that count every comparison."""
    compared = [0]

    class CountedName(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            compared[0] += 1
            return str.__eq__(self, other)

    scenario = scenario_from_dict(joint_fanout_scenario(Random(3), 6, 2 * fanout, fanout))
    scenario = scenario._replace(agents=tuple(
        spec._replace(agent_id=CountedName(spec.agent_id)) if spec.agent_id[0] == "p" else spec
        for spec in scenario.agents
    ))
    handle = parley.agents.JointInitiator.on_message
    per_reply: list[int] = []

    def tracked(initiator, rt, msg):
        round_, compared[0] = initiator.round, 0
        handle(initiator, rt, msg)
        if msg.performative in (READY_TO_SELECT, UNABLE_TO_SELECT) and initiator.round is round_:
            per_reply.append(compared[0])

    with monkeypatch.context() as patch:
        patch.setattr(parley.agents.JointInitiator, "on_message", tracked)
        runtime = build_runtime(scenario)
        trace = runtime.run_until_quiescent()
    assert {t.outcome for t in summarize(scenario, runtime, trace).tasks} == {"selected"}
    return per_reply


def test_admitting_a_reply_does_not_grow_with_the_call(monkeypatch):
    small = _admission_comparisons(40, monkeypatch)
    large = _admission_comparisons(160, monkeypatch)
    assert len(large) > 3 * len(small) > 0
    assert max(large) == max(small) <= 1


@pytest.mark.parametrize("pool", [20, 200])
def test_an_allocation_runs_a_bounded_number_of_matchings(pool, monkeypatch):
    """At most one witness and one matching per witness agent for each
    role: roles x (roles + 1), however many agents reply."""
    original = parley.joint._injective_matching
    calls: list = []

    def counted(roles, candidates, used):
        calls.append(len(roles))
        return original(roles, candidates, used)

    monkeypatch.setattr(parley.joint, "_injective_matching", counted)
    protocols = [
        load_protocol("auction"),
        one_n_protocol("cer", {"x": None, "y": "x", "z": None, "w": "y"}),
    ]
    refs = [RoleRef(p.protocol_id, r) for p in protocols for r in father_order(p)]
    rng = Random(pool)
    replies = {
        f"a{i}": tuple(ref for ref in refs if i < 2 or rng.random() < 0.7) for i in range(pool)
    }
    for protocol in protocols:
        calls.clear()
        assert assign_roles_1_n(replies, protocol, Random(1)) is not None
        roles = len(father_order(protocol))
        assert 0 < len(calls) <= roles * (roles + 1)


def _run_and_drop(doc: dict, agent_id: str, protocol_id: str, role_id: str):
    """Run a scenario to the end, fill every per-machine and per-agent
    store, and hand back weak references only."""
    scenario = scenario_from_dict(doc)
    runtime = build_runtime(scenario)
    trace = runtime.run_until_quiescent()
    summarize(scenario, runtime, trace)
    render_trace(trace)
    agent = runtime.agents[agent_id]
    machine = scenario.registry[protocol_id].roles[role_id]
    machine.transitions_from(machine.initial_state)
    method_graph(machine)
    weak_schema_ids(machine)
    return weakref.ref(machine), weakref.ref(agent)


@pytest.mark.parametrize(
    "doc, agent_id, protocol_id, role_id",
    [
        (individual_scenario(Random(3), SEQUENTIAL, 6), "c0", "attr_query", "server"),
        (individual_scenario(Random(3), MIXED, 6), "c0", "attr_query", "server"),
        (joint_scenario(Random(3), 4, 8), "d0", "ips", "replier"),
    ],
    ids=["sequential", "mixed", "joint"],
)
def test_a_dropped_run_leaves_no_machine_or_agent_alive(doc, agent_id, protocol_id, role_id):
    machine, agent = _run_and_drop(doc, agent_id, protocol_id, role_id)
    gc.collect()
    assert machine() is None
    assert agent() is None


def _with_content_faults(doc: dict) -> dict:
    for fault in doc["faults"]:
        fault.pop("field", None)
        fault.update(op="corrupt_content", path=["value"])
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _with_content_faults(individual_scenario(Random(4), SEQUENTIAL, 8)),
        _with_content_faults(individual_scenario(Random(4), MIXED, 8)),
        joint_fanout_scenario(Random(7), 6, 40, 20),
    ],
    ids=["sequential", "mixed", "joint_fanout"],
)
def test_a_run_leaves_no_cyclic_garbage(doc, tmp_path):
    """Everything parsing and a run allocate is freed by reference
    counting, so the collector they pause has nothing to find afterwards."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    enabled = gc.isenabled()
    gc.disable()  # no automatic collection may take the run's cycles first
    try:
        gc.collect()  # the caller's leftovers are not the run's
        scenario = parse_scenario(path)
        runtime = build_runtime(scenario)
        trace = runtime.run_until_quiescent()
        summarize(scenario, runtime, trace)
        render_trace(trace)
        if doc.get("faults"):
            assert any(e.kind == "fault" for e in trace)
        del scenario, runtime, trace
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
