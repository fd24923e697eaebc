"""End-to-end acceptance gate.

One test per release criterion.  Each test prints a single
``ACCEPTANCEn PASS`` line with its measured numbers, so the -rA / -s
output of this module is the release checklist.  Oracles come from
tests/oracles.py (plain-data reimplementations of the decision rules);
instance generation is plain seeded random so the counts are exact.
"""

from __future__ import annotations

import time
from pathlib import Path
from random import Random

from parley.individual import (
    MethodGraph,
    clamped_recovery_points,
    compute_recovery_points,
    method_graph,
)
from parley.joint import (
    PROTOCOL_ORIENTED,
    assign_roles_1_n,
    build_candidate_matrix,
    next_vector,
    select_largest_set,
)
from parley.journal import DataChange, Journal, JournalRecord
from parley.model import (
    RESERVED_PERFORMATIVES,
    InteractionModel,
    Message,
    RoleRef,
    TaskDescription,
    match_task_to_protocols,
)
from parley.runtime import WAKE, render_trace
from parley.scenario import (
    build_runtime,
    load_registry,
    parse_scenario,
    run_scenario,
    scenario_from_dict,
    summarize,
)

from .helpers import BUNDLED, one_n_protocol
from .oracles import (
    oracle_assignment_valid,
    oracle_largest_set,
    oracle_recovery_points,
    oracle_zone_coherent,
)

DATA = Path(__file__).parent / "data"


def stamp(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS — {text}")


def payload(*labels: str) -> tuple[RoleRef, ...]:
    """The offer of a ready-to-select listing ``labels``."""
    return tuple(RoleRef.parse(label) for label in labels)


# ---------------------------------------------------------------------------
# 1. Candidate matrix incidences and exploration order
# ---------------------------------------------------------------------------


def test_criterion_1_candidate_matrix_incidences():
    t0 = time.monotonic()
    registry = load_registry(("ips", "request"))
    model = InteractionModel(
        entries={"ips": frozenset({"asker"}), "request": frozenset({"asker"})}
    )
    task = TaskDescription(
        task_id="t1",
        initiator="q1",
        required_capabilities=frozenset({"document-query"}),
        participants={
            "ips": ("d1", "d2", "d4", "d5", "d7"),
            "request": ("d3", "d4", "d5", "d7"),
        },
    )
    candidates = match_task_to_protocols(task, model, registry)
    matrix = build_candidate_matrix(task, candidates)

    expected_cells = {("ips", a) for a in ("d1", "d2", "d4", "d5", "d7")} | {
        ("request", a) for a in ("d3", "d4", "d5", "d7")
    }
    assert {(p, a) for p, row in matrix.rows.items() for a in row} == expected_cells
    assert matrix.protocols == ("ips", "request")
    assert matrix.agents == ("d1", "d2", "d3", "d4", "d5", "d7")
    # five incidences beat four: the densest row is explored first
    assert len(matrix.rows["ips"]) == 5 and len(matrix.rows["request"]) == 4
    assert next_vector(matrix, PROTOCOL_ORIENTED, frozenset()) == "ips"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    stamp(1, f"matrix has exactly {len(expected_cells)} incidences; "
             f"densest vector 'ips' explored first ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 2. Joint one-to-one selection end to end
# ---------------------------------------------------------------------------


def test_criterion_2_joint_selection_end_to_end():
    t0 = time.monotonic()
    trace, summary = run_scenario(parse_scenario("t1_joint"))
    task = summary.tasks[0]
    assert task.outcome == "selected"
    triple = (task.detail["agent"], task.detail["protocol"], task.detail["role"])
    assert triple == ("d4", "ips", "ips:replier")
    assert task.recoveries == 0

    # the winning role must have been offered by that agent itself
    offered = [
        e.payload["content"]["roles"]
        for e in trace
        if e.kind == "send"
        and e.payload["performative"] == "ready-to-select"
        and e.payload["from"] == "d4"
    ]
    assert offered and task.detail["role"] in offered[0]

    # with every identified agent declining, selection reports failure
    runtime = build_runtime(parse_scenario("t1_joint_refusal"))
    runtime.run_until_quiescent()
    assert runtime.agents["q1"].outcome == ("failure", {"reason": "exhausted"})
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    stamp(2, f"(d4, ips, ips:replier) selected from d4's own offer; "
             f"unanimous refusal yields failure ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 3. Largest-set arbitration against the brute-force oracle
# ---------------------------------------------------------------------------


def random_largest_set_instance(rng: Random):
    n_agents = rng.randint(1, 6)
    n_roles = rng.randint(1, 5)
    identified = {"many"} | ({"ghost"} if rng.random() < 0.5 else set())
    labels = [
        f"{rng.choice(['many', 'many', 'ghost'])}:r{c}" for c in "ABCDE"[:n_roles]
    ]
    replies = {
        f"a{i}": rng.sample(labels, rng.randint(1, len(labels)))
        for i in range(1, n_agents + 1)
    }
    return replies, identified


def test_criterion_3_largest_set_oracle_equivalence():
    t0 = time.monotonic()
    runs = 1000
    rng = Random(301)
    for _ in range(runs):
        plain_replies, identified = random_largest_set_instance(rng)
        replies = {a: payload(*labels) for a, labels in plain_replies.items()}
        expected = oracle_largest_set(plain_replies, identified)
        got = select_largest_set(replies, identified)
        if expected is None:
            assert got is None, (plain_replies, identified, got)
        else:
            assert got is not None, (plain_replies, identified, expected)
            assert (str(got[0]), got[1]) == expected, (plain_replies, identified)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    stamp(3, f"largest-set arbitration vs oracle: {runs}/{runs} agree ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. Role allocation over random father forests
# ---------------------------------------------------------------------------


def random_forest_instance(rng: Random):
    n_roles = rng.randint(1, 5)
    roles = [f"p{i}" for i in range(1, n_roles + 1)]
    fathers = {
        role: (rng.choice([None] + roles[:i]) if i else None)
        for i, role in enumerate(roles)
    }
    agents = [f"a{i}" for i in range(1, rng.randint(1, 6) + 1)]
    replies: dict[str, list[str]] = {a: [] for a in agents}
    for role in roles:
        for agent in rng.sample(agents, rng.randint(1, len(agents))):
            replies[agent].append(role)
    return fathers, {a: rs for a, rs in replies.items() if rs}


def test_criterion_4_role_allocation_on_father_forests():
    t0 = time.monotonic()
    runs = 500
    rng = Random(401)
    for i in range(runs):
        fathers, plain_replies = random_forest_instance(rng)
        protocol = one_n_protocol("cer", fathers)
        replies = {
            agent: payload(*[f"cer:{r}" for r in roles])
            for agent, roles in plain_replies.items()
        }
        got = assign_roles_1_n(replies, protocol, Random(i))
        assert got is not None, (fathers, plain_replies)
        candidates = {
            role: {a for a, roles in plain_replies.items() if role in roles}
            for role in fathers
        }
        assignment = {ref.role: agent for ref, agent in got.items()}
        assert oracle_assignment_valid(candidates, assignment), (
            fathers, plain_replies, assignment,
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    stamp(4, f"role allocation on {runs} random father forests: every role covered, "
             f"injective whenever possible ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 5. Recovery points against the path oracle, plus the worked example
# ---------------------------------------------------------------------------


DUMMY = Message(
    performative="tell", content={"x": "y"}, language="kv", ontology="core",
    sender="s", receiver="r", conversation_id="c",
)


def random_journal_graph_instance(rng: Random):
    methods = [f"m{i}" for i in range(1, rng.randint(1, 8) + 1)]
    follow = {
        m: frozenset(rng.sample(methods, rng.randint(0, min(4, len(methods)))))
        for m in methods
    }
    n_records = rng.randint(0, 8)
    sequence = [rng.choice(methods) for _ in range(n_records)]
    if n_records and rng.random() < 0.5:
        walk = [methods[0]]
        while len(walk) < n_records:
            succs = sorted(follow[walk[-1]])
            if not succs:
                break
            walk.append(rng.choice(succs))
        sequence = walk
    return [(m, rng.random() < 0.5) for m in sequence], methods[0], follow


def test_criterion_5_recovery_points_oracle_equivalence():
    t0 = time.monotonic()
    runs = 1000
    rng = Random(501)
    for _ in range(runs):
        plain_records, initial, follow = random_journal_graph_instance(rng)
        records = [
            JournalRecord(
                method=method,
                input_event=DUMMY if is_msg else DataChange("v", seq),
            )
            for seq, (method, is_msg) in enumerate(plain_records, start=1)
        ]
        graph = MethodGraph(initial=initial, follow=follow)
        got = compute_recovery_points(records, graph)
        assert got == oracle_recovery_points(plain_records, initial, follow)
        assert 1 <= got[0] <= got[1], (plain_records, got)

    # worked example: a replacement whose methods never produced the
    # journal must restart, and both points collapse onto record 1
    registry = load_registry(("attr_query", "attr_probe"))
    ask = Message(
        performative="ask-one", content={"attribute": "modified", "document": "d4"},
        language="kv", ontology="core", sender="q2", receiver="c1",
        conversation_id="t2/c1", reply_with="q2.1",
    )
    tell = Message(
        performative="tell", content={"value": "text"}, language="kv",
        ontology="core", sender="c1", receiver="q2", conversation_id="t2/c1",
        reply_with="c1.1",
    )
    journal = Journal("t2/c1", "c1", "q2")
    journal.records += [
        JournalRecord("aq-take", ask, DataChange("q", ask.content)),
        JournalRecord("aq-answer", DataChange("q", ask.content), tell),
    ]
    graph = method_graph(registry["attr_probe"].roles["server"])
    assert compute_recovery_points(journal.records, graph) == (1, 1)
    assert clamped_recovery_points(journal.records, graph, location=2) == (1, 1)

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    stamp(5, f"recovery points vs oracle: {runs}/{runs} agree, 1 <= i <= j throughout; "
             f"worked example collapses to (1, 1) ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 6. Sequential recovery golden run
# ---------------------------------------------------------------------------


def test_criterion_6_sequential_recovery_golden_run():
    t0 = time.monotonic()
    scenario = parse_scenario("t2_sequential_fault")
    trace, summary = run_scenario(scenario)

    frozen = (DATA / "t2_sequential_fault.trace.jsonl").read_text(encoding="utf-8")
    assert render_trace(trace) == frozen, "trace drifted from the frozen golden"

    # narrative: the active server's reply is corrupted in flight ...
    assert sum(1 for e in trace if e.kind == "fault") == 1
    first_role = next(
        e.payload["role"] for e in trace
        if e.kind == "selection" and e.payload.get("step") == "role-instantiated"
    )
    assert first_role == "attr_query:server"
    errors = [
        e.payload["content"] for e in trace
        if e.kind == "send" and e.payload["performative"] == "error-notify"
    ]
    assert [e["kind"] for e in errors] == ["wrong-content"]
    # ... one sibling is purged, another selected, in a single recovery ...
    recoveries = [e for e in trace if e.kind == "recovery"]
    assert len(recoveries) == 1
    rec = recoveries[0].payload
    assert rec["action"] == "replacement"
    assert rec["purged"] == ["attr_lookup:server"]
    assert rec["role"] == "attr_probe:server"
    # ... and the interaction still ends well, with mutual termination.
    notices = [
        e for e in trace
        if e.kind == "send" and e.payload["performative"] == "termination-notice"
    ]
    assert len(notices) == 2
    assert {e.payload["from"] for e in notices} == {"q2", "c1"}
    task = summary.tasks[0]
    assert task.outcome == "concluded" and task.detail == {"final_state": "done"}
    assert task.recoveries == 1 and task.terminated

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    stamp(6, "fault on the active server's reply -> one purge, one replacement, "
             f"one recovery, mutual termination; trace byte-exact ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 7. Mixed-mode coherence under randomized faults
# ---------------------------------------------------------------------------


SERVER_MENU = ("attr_digest", "attr_lookup", "attr_probe", "attr_query")
CONTENT_PATHS = (("value",), ("attribute",), ("document",), ("fact",), ("info",))
STRUCTURE_FIELDS = ("performative", "language", "ontology", "shape")


def random_mixed_scenario(index: int) -> dict:
    rng = Random(7000 + index)
    servers = rng.sample(SERVER_MENU, rng.randint(2, len(SERVER_MENU)))
    faults = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            faults.append({
                "conversation": "t7/*",
                "ordinal": rng.randint(1, 6),
                "op": "corrupt_structure",
                "field": rng.choice(STRUCTURE_FIELDS),
            })
        else:
            faults.append({
                "conversation": "t7/*",
                "ordinal": rng.randint(1, 6),
                "op": "corrupt_content",
                "path": list(rng.choice(CONTENT_PATHS)),
            })
    protocols = sorted(set(servers) | {"attr_query"})
    return {
        "scenario_id": f"mixed_random_{index}",
        "seed": index,
        "selection_mode": "individual_mixed",
        "protocols": protocols,
        "agents": [
            {"id": "q7", "enacts": {"attr_query": ["querier"]}},
            {"id": "c7", "enacts": {name: ["server"] for name in servers}},
        ],
        "tasks": [{
            "id": "t7",
            "initiator": "q7",
            "capabilities": ["attribute-retrieval"],
            "participants": {"attr_query": ["c7"]},
        }],
        "faults": faults,
    }


def assert_no_concurrent_participant_messages(trace, initiator: str, conversation: str):
    """At no instant are two undelivered interaction messages bound for
    the initiator: the serving side always speaks with one voice."""
    pending: set[int] = set()
    for event in trace:
        p = event.payload
        if p.get("conversation") != conversation or p.get("to") != initiator:
            continue
        performative = p.get("performative", "")
        if performative in RESERVED_PERFORMATIVES or performative == WAKE:
            continue
        if event.kind == "send":
            pending.add(p["seq"])
            assert len(pending) <= 1, f"concurrent sends {pending} to {initiator}"
        elif event.kind == "deliver":
            pending.discard(p["seq"])


def run_mixed_invariant_battery(raw: dict) -> dict:
    scenario = scenario_from_dict(raw)
    runtime = build_runtime(scenario)
    trace = runtime.run_until_quiescent()
    summary = summarize(scenario, runtime, trace)

    initiator = scenario.tasks[0].initiator
    conversation = f"{scenario.tasks[0].task_id}/{scenario.agents[1].agent_id}"

    # every run settles: both ends reach a verdict
    outcome = runtime.agents[initiator].outcome
    status = outcome[0] if outcome else None
    assert status in ("concluded", "failed"), f"initiator left hanging: {status}"

    # recovery effort is bounded by the candidate collection
    sizes = [
        len(e.payload["collection"]) for e in trace
        if e.kind == "selection" and e.payload.get("step") == "all-instantiated"
    ]
    collection_size = sizes[0] if sizes else 0
    recoveries = sum(1 for e in trace if e.kind == "recovery")
    assert summary.tasks[0].recoveries == recoveries
    assert recoveries <= 2 * collection_size, (recoveries, collection_size)

    # at quiescence every zone is coherent: active instances agree
    responder = runtime.agents[scenario.agents[1].agent_id]
    for thread in responder.threads.values():
        if thread.zone is not None:
            assert oracle_zone_coherent(thread.zone)

    assert_no_concurrent_participant_messages(trace, initiator, conversation)
    return {"status": status, "recoveries": recoveries}


def test_criterion_7_mixed_mode_coherence_under_random_faults():
    t0 = time.monotonic()
    runs = 200
    concluded = 0
    total_recoveries = 0
    for index in range(runs):
        outcome = run_mixed_invariant_battery(random_mixed_scenario(index))
        concluded += outcome["status"] == "concluded"
        total_recoveries += outcome["recoveries"]
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0
    stamp(7, f"{runs}/{runs} randomized mixed runs terminate coherently within the "
             f"recovery bound ({concluded} concluded, {total_recoveries} recoveries "
             f"total, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------


def test_criterion_8_determinism():
    t0 = time.monotonic()
    for name in BUNDLED:
        scenario = parse_scenario(name)
        first, _ = run_scenario(scenario)
        second, _ = run_scenario(scenario)
        assert render_trace(first) == render_trace(second), name

    # under other seeds the stories differ but stay well formed
    reseeded = 0
    for name in BUNDLED:
        base = parse_scenario(name)
        for bump in (1, 2):
            scenario = base._replace(seed=base.seed + bump)
            trace, summary = run_scenario(scenario)
            sent = {e.payload["seq"] for e in trace if e.kind == "send"}
            assert all(
                e.payload["seq"] in sent for e in trace if e.kind == "deliver"
            ), name
            for task in summary.tasks:
                assert task.outcome in (
                    "selected", "failure", "concluded", "failed", "unresolved",
                )
            reseeded += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    stamp(8, f"all {len(BUNDLED)} scenarios byte-identical on reruns; "
             f"{reseeded} reseeded runs stay well formed ({elapsed:.2f}s)")
