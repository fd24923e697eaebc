"""Per-message work happens once, and nothing kept for it outlives a run.

Counted, not timed: the matcher is wrapped and every call recorded, so
a handler that matches the same delivery against the same role twice
shows up as a repeated call.  The lifetime checks drop a finished run
and require its machines and agents to be collected, which rules out
any cache that holds on to them from module level.
"""

from __future__ import annotations

import gc
import weakref
from random import Random

import pytest

import parley.agents
import parley.individual
import parley.machine
import parley.mixed
import parley.runtime
from parley.individual import method_graph
from parley.machine import weak_schema_ids
from parley.model import RESERVED_PERFORMATIVES
from parley.runtime import WAKE, render_trace
from parley.scenario import (
    MIXED,
    SEQUENTIAL,
    build_runtime,
    scenario_from_dict,
    summarize,
)

from .helpers import individual_scenario, joint_scenario


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


def _run_and_drop(doc: dict, agent_id: str, protocol_id: str, role_id: str):
    """Run a scenario to the end, fill every per-machine and per-agent
    store, and hand back weak references only."""
    scenario = scenario_from_dict(doc)
    runtime = build_runtime(scenario)
    trace = runtime.run_until_quiescent()
    summarize(scenario, runtime, trace)
    render_trace(trace)
    agent = runtime.agents[agent_id]
    machine = agent.registry[protocol_id].roles[role_id]
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
