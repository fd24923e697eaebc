#!/usr/bin/env python3
"""Regenerate the frozen golden traces under tests/data/.

Each golden is the full JSON Lines trace of one bundled scenario,
produced by a seeded run and then kept byte-for-byte.  Before freezing
anything this script re-checks the narrative that made the seed worth
keeping; if an edit to the engine breaks a predicate the script fails
instead of silently freezing a different story.

Run from the repository root:  python3 scripts/regen_goldens.py

    python3 scripts/regen_goldens.py --check

reruns every scenario and its narrative check but writes nothing: it
compares the fresh trace and summary with the frozen files byte for
byte, prints the first line that differs, and exits 1 on any
difference.  It also renders every path of ``render_trace`` (the
templated send and deliver records, the events encoded whole and the
errors), with the C encoder and without it, and each fresh trace
against one ``json.dumps`` per event.  It needs only the standard
library, so any Python the package supports can run it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from parley import runtime  # noqa: E402
from parley.model import Message  # noqa: E402
from parley.runtime import Delivered, Sent, TraceEvent, render_trace  # noqa: E402
from parley.scenario import parse_scenario, run_scenario  # noqa: E402

DATA = ROOT / "tests" / "data"


def _error_kinds(trace):
    return [
        e.payload["content"]["kind"]
        for e in trace
        if e.kind == "send" and e.payload["performative"] == "error-notify"
    ]


def check_t1_joint(trace, summary):
    task = summary.tasks[0]
    assert task.outcome == "selected", task
    assert task.detail == {
        "protocol": "ips",
        "role": "ips:replier",
        "agent": "d4",
    }, task.detail
    assert task.recoveries == 0
    solved = [e for e in trace if e.kind == "selection" and e.payload.get("step") == "solved"]
    assert len(solved) == 1
    # the story: d1 never answers (deadline), d2 declines, d4 accepts
    stops = [e.payload["to"] for e in trace
             if e.kind == "send" and e.payload["performative"] == "stop-selection"]
    assert "d1" in stops, stops
    unable = [e.payload["from"] for e in trace
              if e.kind == "send" and e.payload["performative"] == "unable-to-select"]
    assert unable == ["d2"], unable


def check_t1_joint_refusal(trace, summary):
    task = summary.tasks[0]
    assert task.outcome == "failure", task
    assert task.detail == {"reason": "exhausted"}
    assert not summary.all_terminated


def check_t2_sequential_fault(trace, summary):
    task = summary.tasks[0]
    assert task.outcome == "concluded" and task.detail == {"final_state": "done"}, task
    assert sum(1 for e in trace if e.kind == "fault") == 1
    assert _error_kinds(trace) == ["wrong-content"]
    recoveries = [e for e in trace if e.kind == "recovery"]
    assert len(recoveries) == 1
    payload = recoveries[0].payload
    assert payload["action"] == "replacement"
    assert payload["purged"], "at least one candidate must be purged"
    notices = [e for e in trace
               if e.kind == "send" and e.payload["performative"] == "termination-notice"]
    assert len(notices) == 2, "termination must be mutual"
    assert task.terminated


def check_t2_mixed_fault(trace, summary):
    task = summary.tasks[0]
    assert task.outcome == "concluded" and task.detail == {"final_state": "done"}, task
    assert sum(1 for e in trace if e.kind == "fault") == 1
    assert "wrong-content" in _error_kinds(trace)
    recoveries = [e for e in trace if e.kind == "recovery"]
    assert len(recoveries) == 1
    payload = recoveries[0].payload
    assert payload["action"] == "reactivation" and payload["restart"] is True
    notices = [e for e in trace
               if e.kind == "send" and e.payload["performative"] == "termination-notice"]
    assert len(notices) == 2
    assert task.terminated


def check_cnp_largest_set(trace, summary):
    task = summary.tasks[0]
    assert task.outcome == "selected"
    assert task.detail["role"] == "cnp:contractor"
    assert task.detail["agents"] == ["a1", "a2", "a3"]
    stops = [e.payload["to"] for e in trace
             if e.kind == "send" and e.payload["performative"] == "stop-selection"]
    assert stops == ["a4"], stops


def check_auction_tree(trace, summary):
    task = summary.tasks[0]
    assert task.outcome == "selected"
    assignment = task.detail["assignment"]
    assert set(assignment) == {"auction:buyer", "auction:manager", "auction:seller"}
    assert len(set(assignment.values())) == 3, "allocation should be injective here"


GOLDENS = {
    "t1_joint": check_t1_joint,
    "t1_joint_refusal": check_t1_joint_refusal,
    "t2_sequential_fault": check_t2_sequential_fault,
    "t2_mixed_fault": check_t2_mixed_fault,
    "cnp_largest_set": check_cnp_largest_set,
    "auction_tree": check_auction_tree,
}


def render_summary(trace, summary) -> str:
    counts = {
        "tasks": [
            {
                "task_id": t.task_id,
                "outcome": t.outcome,
                "messages": t.messages,
                "recoveries": t.recoveries,
                "terminated": t.terminated,
            }
            for t in summary.tasks
        ],
        "events": len(trace),
        "ticks": summary.ticks,
    }
    return json.dumps(counts, indent=2, sort_keys=True) + "\n"


def first_difference(path: Path, fresh: str) -> str | None:
    """None when the file holds exactly ``fresh``; otherwise where and how
    the two first differ."""
    if not path.is_file():
        return f"{path.relative_to(ROOT)}: missing"
    frozen = path.read_text(encoding="utf-8")
    if frozen == fresh:
        return None
    old_lines = frozen.splitlines(keepends=True)
    new_lines = fresh.splitlines(keepends=True)
    for number, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
        if old != new:
            return (
                f"{path.relative_to(ROOT)}:{number}: differs\n"
                f"  frozen: {old!r}\n  fresh:  {new!r}"
            )
    number = min(len(old_lines), len(new_lines)) + 1
    return (
        f"{path.relative_to(ROOT)}:{number}: frozen has {len(old_lines)} lines, "
        f"fresh has {len(new_lines)}"
    )


def dumps_per_event(events) -> str:
    return "".join(json.dumps({"tick": t, "kind": k, **p}) + "\n" for t, k, p in events)


def render_without_c_encoder(trace) -> str:
    """render_trace as it runs where json has no C encoder."""
    make = runtime.c_make_encoder
    runtime.c_make_encoder = None
    try:
        return render_trace(trace)
    finally:
        runtime.c_make_encoder = make


def render_problems() -> list[str]:
    """Each path of render_trace, with and without the C encoder, against
    one json.dumps per event: the same bytes, or the same exception type
    and message."""
    loop: list = []
    loop.append({"again": loop})
    message = Message("inform", {"x": [1, 0.5]}, "kv", "core", "src", "sink", "c", "m.1")
    send = {"seq": 4, "from": "src", "to": "sink", "conversation": "c",
            "performative": "inform", "tag": "m.1", "content": {"x": [1, 0.5]}}
    deliver = {k: send[k] for k in ("seq", "from", "to", "conversation", "performative")}

    def sent(**change):
        return Sent(4, message._replace(**change))

    def delivered(**change):
        return Delivered(4, message._replace(**change))

    cases = {
        "send record": [(3, "send", sent())],
        "send record without tag": [(3, "send", sent(reply_with=None))],
        "send record with non-ASCII ids and tag": [
            (3, "send", sent(receiver="\u4e2d", reply_with="\u00e9\U0001f600"))
        ],
        "send record with NaN and infinities": [
            (3, "send", sent(content=[float("nan"), float("inf"), -float("inf")]))
        ],
        "deliver record": [(3, "deliver", delivered())],
        "record with unserialisable content": [
            (1, "deliver", delivered()), (3, "send", sent(content={"deep": [{1, 2}]}))
        ],
        "record with circular content": [(3, "send", sent(content=loop))],
        "send dict": [(3, "send", send)],
        "send dict without tag": [(3, "send", {**send, "tag": None})],
        "send dict with non-ASCII ids": [(3, "send", {**send, "to": "\u4e2d", "tag": "\u00e9\U0001f600"})],
        "send dict with NaN and infinities": [
            (3, "send", {**send, "content": [float("nan"), float("inf"), -float("inf")]})
        ],
        "send dict with bool seq": [(3, "send", {**send, "seq": True})],
        "send dict with int sender": [(3, "send", {**send, "from": 7})],
        "send dict with int tag": [(3, "send", {**send, "tag": 7})],
        "send dict with bool tick": [(True, "send", send)],
        "deliver dict": [(3, "deliver", deliver)],
        "deliver dict with None receiver": [(3, "deliver", {**deliver, "to": None})],
        "spliced payload": [(5, "recovery", {"conversation": "c", "points": [1, None]})],
        "empty payload": [(5, "selection", {})],
        "payload with its own kind": [(5, "recovery", {"action": "replacement", "kind": "content"})],
        "unserialisable content": [
            (1, "deliver", deliver), (3, "send", {**send, "content": {"deep": [{1, 2}]}})
        ],
        "circular content": [(3, "send", {**send, "content": loop})],
        "unserialisable payload": [(5, "recovery", {"x": b"bytes"})],
    }
    problems = []
    for name, events in cases.items():
        trace = [TraceEvent(*e) for e in events]
        outcomes = {}
        for path, render in (
            ("json.dumps", dumps_per_event),
            ("render_trace", render_trace),
            ("render_trace without the C encoder", render_without_c_encoder),
        ):
            try:
                outcomes[path] = render(trace)
            except (TypeError, ValueError) as exc:
                outcomes[path] = f"{type(exc).__name__}: {exc}"
        expected = outcomes.pop("json.dumps")
        problems.extend(
            f"render {name}: json.dumps {expected!r}, {path} {got!r}"
            for path, got in outcomes.items()
            if got != expected
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the frozen files instead of writing them; exit 1 on a difference",
    )
    args = parser.parse_args(argv)
    if not args.check:
        DATA.mkdir(parents=True, exist_ok=True)
    failed = False
    if args.check:
        problems = render_problems()
        for problem in problems:
            print(problem)
        failed = bool(problems)
        print(f"render_trace: {'differs from' if problems else 'identical to'} json.dumps")
    for name, check in GOLDENS.items():
        scenario = parse_scenario(name)
        trace, summary = run_scenario(scenario)
        check(trace, summary)
        outputs = {
            DATA / f"{name}.trace.jsonl": render_trace(trace),
            DATA / f"{name}.summary.json": render_summary(trace, summary),
        }
        if args.check:
            problems = [
                problem
                for path, fresh in outputs.items()
                if (problem := first_difference(path, fresh)) is not None
            ]
            if render_trace(trace) != dumps_per_event(trace):
                problems.append(f"{name}: render_trace differs from json.dumps per event")
            for problem in problems:
                print(problem)
            failed = failed or bool(problems)
            print(f"{name}: {len(trace)} events, {'differs' if problems else 'identical'}")
            continue
        for path, fresh in outputs.items():
            path.write_text(fresh, encoding="utf-8")
        print(f"{name}: {len(trace)} events -> {(DATA / f'{name}.trace.jsonl').relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
