"""Joint traces read against the selection meta-protocol by a monitor
that sees only the rendered JSON Lines (``tests/meta_monitor.py``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from parley.runtime import render_trace
from parley.scenario import run_scenario, scenario_from_dict

from .helpers import joint_fanout_scenario, joint_scenario, scenario_path
from .meta_monitor import meta_protocol_violations

REPO = Path(__file__).resolve().parent.parent
GOLDENS = ("t1_joint", "t1_joint_refusal", "t2_sequential_fault", "t2_mixed_fault",
           "cnp_largest_set", "auction_tree")


def _golden(name: str) -> list[str]:
    return (REPO / "tests" / "data" / f"{name}.trace.jsonl").read_text().splitlines()


def _compatibility(name: str) -> list:
    return json.loads(scenario_path(name).read_text()).get("compatibility", [])


def _notices(lines: list[str]) -> int:
    return sum('"kind": "deliver"' in l and '"notify-assignment"' in l for l in lines)


def _check_runs(docs) -> int:
    """Run each scenario, check its rendered trace, return the notices seen."""
    notices = 0
    for doc in docs:
        trace, _ = run_scenario(scenario_from_dict(doc))
        lines = render_trace(trace).splitlines()
        assert meta_protocol_violations(lines, doc.get("compatibility", [])) == []
        notices += _notices(lines)
    return notices


def test_the_goldens_keep_the_meta_protocol():
    notices = 0
    for name in GOLDENS:
        lines = _golden(name)
        assert meta_protocol_violations(lines, _compatibility(name)) == [], name
        notices += _notices(lines)
    assert notices >= 5


def test_random_joint_runs_keep_the_meta_protocol():
    assert _check_runs(joint_scenario(Random(seed), 6, 12) for seed in range(200)) > 200


def test_wide_broadcasts_keep_the_meta_protocol():
    docs = (joint_fanout_scenario(Random(seed), 9, 120, 40) for seed in range(10))
    assert _check_runs(docs) > 500


def _edit(lines: list[str], seq: int, **fields) -> list[str]:
    """The lines with ``fields`` changed in the send and delivery of ``seq``."""
    out = []
    for line in lines:
        event = json.loads(line)
        if event.get("seq") == seq and event["kind"] in ("send", "deliver"):
            event.update((k, v) for k, v in fields.items() if k in event)
            line = json.dumps(event)
        out.append(line)
    return out


class TestViolationsAreFlagged:
    """Edits of the cnp_largest_set golden: a1, a2 and a3 are assigned
    cnp:contractor; a3 also offered icnp:contractor, which the table
    reaches from cnp; a4 is stopped."""

    def test_a_role_the_recipient_never_offered(self):
        lines = _edit(_golden("cnp_largest_set"), 11, content={"role": "icnp:contractor"})
        (violation,) = meta_protocol_violations(lines, _compatibility("cnp_largest_set"))
        assert "a2 in t3!select: assigned icnp:contractor" in violation
        assert "['cnp:contractor'] lacks" in violation

    def test_a_role_of_another_protocol_needs_the_compatibility_table(self):
        lines = _edit(_golden("cnp_largest_set"), 12, content={"role": "icnp:contractor"})
        assert meta_protocol_violations(lines, _compatibility("cnp_largest_set")) == []
        (violation,) = meta_protocol_violations(lines)
        assert "a3 in t3!select: assigned icnp:contractor for a cnp call" in violation

    def test_nothing_is_delivered_after_a_notify_assignment(self):
        lines = _edit(_golden("cnp_largest_set"), 13, to="a3")
        (violation,) = meta_protocol_violations(lines, _compatibility("cnp_largest_set"))
        assert "a3 in t3!select: stop-selection delivered after its notify-assignment" in violation

    def test_every_role_of_an_allocation_is_checked(self):
        lines = _golden("auction_tree")
        notice = next(
            json.loads(l) for l in lines
            if '"kind": "send"' in l and '"notify-assignment"' in l
        )
        content = {**notice["content"], "roles": [*notice["content"]["roles"], "auction:ghost"]}
        edited = _edit(lines, notice["seq"], content=content)
        (violation,) = meta_protocol_violations(edited)
        assert "assigned auction:ghost" in violation


@pytest.mark.parametrize("edit, status", [({}, 0), ({"to": "a3"}, 1)], ids=["golden", "edited"])
def test_the_monitor_runs_on_a_trace_file(tmp_path, edit, status):
    trace = tmp_path / "trace.jsonl"
    lines = _golden("cnp_largest_set")
    trace.write_text("\n".join(_edit(lines, 13, **edit)) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "tests.meta_monitor", str(trace),
         str(scenario_path("cnp_largest_set"))],
        cwd=REPO, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == status, done.stderr
    assert done.stdout.splitlines()[-1].startswith(f"{status} violation(s)")
