"""Scenario inputs for the benchmark workloads, made from a seed.

Every workload is a list of *passes*; a pass is the list of scenario
documents the closed loop runs back to back, one full workload run.
The generators return plain dicts and never touch ``parley``: the
program only ever sees the JSON files written from them, read through
``parse_scenario``.  The same seed gives byte-identical documents.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_DIR = ROOT / "src" / "parley" / "fixtures" / "scenarios"
GOLDEN_DIR = ROOT / "tests" / "data"

BUNDLED = (
    "t1_joint",
    "t1_joint_refusal",
    "t2_sequential_fault",
    "t2_mixed_fault",
    "cnp_largest_set",
    "auction_tree",
)

ATTR_PROTOCOLS = ["attr_digest", "attr_lookup", "attr_probe", "attr_query"]
ATTRIBUTES = ("modified", "created", "author", "title", "size", "owner")
#: (op, ordinal, extra fields) drawn per task; all aim at the task's own conversation
FAULT_MIX = (
    ("corrupt_content", 2, {"path": ["value"]}),
    ("corrupt_content", 3, {"path": ["value"]}),
    ("corrupt_structure", 2, {"field": "performative"}),
    ("corrupt_structure", 3, {"field": "shape"}),
)

#: the three joint cases: capability, {protocol: participant role}, initiator roles
JOINT_CASES = (
    ("contracting", {"cnp": ("contractor",), "icnp": ("contractor",)},
     {"cnp": ["manager"], "icnp": ["manager"]}),
    ("document-query", {"ips": ("replier",), "request": ("replier",)},
     {"ips": ["asker"], "request": ["asker"]}),
    ("brokering", {"auction": ("buyer", "manager", "seller")},
     {"auction": ["opener"]}),
)

FAULTY_TASKS = 500
JOINT_SCENARIOS = 4
JOINT_TASKS = 24
JOINT_POOL = 1000
JOINT_FANOUT = 200
SILENT_SHARE = 0.05
UNWILLING_SHARE = 0.10


def faulty_individual(rng: Random, mode: str, n_tasks: int = FAULTY_TASKS) -> dict:
    """One individual-selection scenario, one fault per task.

    Each task gets its own initiator and participant (build_runtime keys
    initiators by agent id) and its own fault on its own conversation.
    """
    agents = []
    tasks = []
    faults = []
    for i in range(n_tasks):
        agents.append({"id": f"q{i}", "enacts": {"attr_query": ["querier"]}})
        agents.append(
            {"id": f"c{i}", "enacts": {p: ["server"] for p in ATTR_PROTOCOLS}}
        )
        tasks.append(
            {
                "id": f"t{i}",
                "initiator": f"q{i}",
                "capabilities": ["attribute-retrieval"],
                "participants": {"attr_query": [f"c{i}"]},
                "constraints": {
                    "contents": {
                        "ask": {
                            "attribute": rng.choice(ATTRIBUTES),
                            "document": f"d{rng.randrange(1, 100)}",
                        }
                    }
                },
            }
        )
        op, ordinal, extra = rng.choice(FAULT_MIX)
        faults.append({"conversation": f"t{i}/*", "ordinal": ordinal, "op": op, **extra})
    return {
        "scenario_id": f"faulty_{mode}",
        "seed": rng.randrange(2**31),
        "selection_mode": mode,
        "protocols": list(ATTR_PROTOCOLS),
        "agents": agents,
        "tasks": tasks,
        "faults": faults,
    }


def joint_fanout(
    rng: Random,
    index: int,
    n_tasks: int = JOINT_TASKS,
    pool: int = JOINT_POOL,
    fanout: int = JOINT_FANOUT,
) -> dict:
    """Joint tasks rotating through the three cases, each broadcast to
    ``fanout`` agents drawn from a shared pool."""
    agents = []
    members = []
    for j in range(pool):
        enacts = {"cnp": ["contractor"], "ips": ["replier"], "request": ["replier"]}
        if rng.random() < 0.5:
            enacts["icnp"] = ["contractor"]
        auction_roles = sorted(rng.sample(["buyer", "manager", "seller"], rng.randint(1, 2)))
        enacts["auction"] = auction_roles
        entry = {"id": f"p{j}", "enacts": enacts}
        draw = rng.random()
        if draw < SILENT_SHARE:
            entry["behavior"] = "silent"
        elif draw < SILENT_SHARE + UNWILLING_SHARE:
            entry["willing"] = False
        agents.append(entry)
        members.append(entry)
    tasks = []
    for k in range(n_tasks):
        capability, participant_roles, initiator_roles = JOINT_CASES[k % len(JOINT_CASES)]
        initiator = f"i{k}"
        agents.append({"id": initiator, "enacts": initiator_roles})
        chosen = rng.sample(members, fanout)
        participants = {
            protocol: [a["id"] for a in chosen if protocol in a["enacts"]]
            for protocol in participant_roles
        }
        tasks.append(
            {
                "id": f"t{k}",
                "initiator": initiator,
                "capabilities": [capability],
                "participants": participants,
            }
        )
    return {
        "scenario_id": f"joint_fanout_{index}",
        "seed": rng.randrange(2**31),
        "selection_mode": "joint",
        "protocols": ["auction", "cnp", "icnp", "ips", "request"],
        "agents": agents,
        "tasks": tasks,
    }


def bundled_pass(seed: int) -> list[str]:
    """The bundled scenario names in a seed-chosen round-robin order."""
    order = list(BUNDLED)
    Random(seed).shuffle(order)
    return order


def generate(workload: str, seed: int) -> list[tuple[str, str]]:
    """(scenario name, JSON text) for one pass of a generated workload."""
    rng = Random(f"{workload}:{seed}")
    if workload == "faulty_individual":
        docs = [
            faulty_individual(rng, "individual_sequential"),
            faulty_individual(rng, "individual_mixed"),
        ]
    elif workload == "joint_fanout":
        docs = [joint_fanout(Random(rng.randrange(2**63)), i) for i in range(JOINT_SCENARIOS)]
    else:
        raise ValueError(f"no generated workload {workload!r}")
    return [(doc["scenario_id"], json.dumps(doc, indent=1) + "\n") for doc in docs]
