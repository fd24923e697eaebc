"""A runtime monitor of the joint-selection meta-protocol, reading a
rendered JSON Lines trace alone.

It knows the protocol only as the FIPA-style rules of the selection
dialogue, not through the package: each ``deliver`` is joined to its
``send`` by ``seq`` for the content, and per (conversation, agent) the
monitor keeps the protocol of the last call for collaboration delivered
to the agent and the roles of the agent's offer delivered after it.
Two rules are checked:

* A notify-assignment names only roles that the recipient's last offer
  listed, each of the call's protocol or, for a role of another
  protocol, reached from it through the compatibility table (a pair
  whose first role is of the call's protocol).
* After its notify-assignment an agent receives nothing more in that
  conversation.  A stop-selection ends nothing: a new call may follow.

The call an offer answers is inferred from delivery order, since no
selection message carries a tag naming its call.

Check a trace file, with the scenario that made it for its
compatibility table; the exit status is 1 when a rule is broken:

    python -m tests.meta_monitor TRACE.jsonl [SCENARIO.json]
"""

from __future__ import annotations

import json
import sys
from typing import Iterable

CALL = "call-for-collaboration"
READY = "ready-to-select"
NOTIFY = "notify-assignment"


def meta_protocol_violations(
    lines: Iterable[str], compatibility: Iterable[tuple[str, str]] = ()
) -> list[str]:
    """Every break of the two rules, one line each, in trace order.

    lines: the rendered trace, one JSON object per line.
    compatibility: the scenario's ``(role, role)`` pairs, as
    ``protocol:role`` strings.
    """
    reached: dict[str, set[str]] = {}
    for caller, role in compatibility:
        reached.setdefault(caller.split(":", 1)[0], set()).add(role)
    contents: dict[int, object] = {}
    calls: dict[tuple[str, str], str] = {}
    offers: dict[tuple[str, str], list] = {}
    assigned: set[tuple[str, str]] = set()
    violations: list[str] = []
    for number, line in enumerate(lines, 1):
        event = json.loads(line)
        kind, performative = event["kind"], event.get("performative")
        if kind == "send" and performative in (CALL, READY, NOTIFY):
            contents[event["seq"]] = event["content"]
        if kind != "deliver":
            continue
        conversation, agent = event["conversation"], event["to"]
        at = f"line {number}: {agent} in {conversation}"
        if (conversation, agent) in assigned:
            violations.append(f"{at}: {performative} delivered after its notify-assignment")
        if performative == CALL:
            calls[conversation, agent] = contents[event["seq"]].get("protocol")
            offers.pop((conversation, agent), None)
        elif performative == READY:
            if (conversation, event["from"]) in calls:
                offers[conversation, event["from"]] = contents[event["seq"]].get("roles", [])
        elif performative == NOTIFY:
            assigned.add((conversation, agent))
            content = contents[event["seq"]]
            protocol = calls.get((conversation, agent))
            offer = offers.get((conversation, agent), [])
            for role in dict.fromkeys([content.get("role"), *content.get("roles", [])]):
                if role not in offer:
                    violations.append(f"{at}: assigned {role}, which its last offer {offer} lacks")
                elif role.split(":", 1)[0] != protocol and role not in reached.get(protocol, ()):
                    violations.append(
                        f"{at}: assigned {role} for a {protocol} call, not compatible with it"
                    )
    return violations


def main() -> int:
    args = sys.argv[1:]
    if len(args) not in (1, 2):
        print("usage: python -m tests.meta_monitor TRACE.jsonl [SCENARIO.json]", file=sys.stderr)
        return 2
    compatibility = []
    if len(args) == 2:
        with open(args[1], encoding="utf-8") as fh:
            compatibility = json.load(fh).get("compatibility", [])
    with open(args[0], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    violations = meta_protocol_violations(lines, compatibility)
    for violation in violations:
        print(violation)
    notices = sum('"kind": "deliver"' in line and f'"{NOTIFY}"' in line for line in lines)
    print(f"{len(violations)} violation(s); {len(lines)} events, {notices} notify-assignment(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
