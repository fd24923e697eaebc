"""The paths both individual-selection responders share.

Each responder runs on a bare bus beside a silent counterpart ``q1``
that only injects messages.  The protocol is the one-to-one ask/answer
exchange, so the responder has a single candidate role: the replier.
"""

from __future__ import annotations

from random import Random

import pytest

from parley.agents import MixedResponder, SequentialResponder
from parley.individual import WRONG_CONTENT, WRONG_STRUCTURE
from parley.machine import MachineDriver
from parley.model import (
    CALL_FOR_COLLABORATION,
    NOTIFY_ASSIGNMENT,
    READY_TO_SELECT,
    RECOVER_AT,
    STOP_SELECTION,
    TERMINATION_NOTICE,
    TERMINATION_WARNING,
    UNABLE_TO_SELECT,
    InteractionModel,
    Message,
)
from parley.runtime import WAKE, AgentBase, SimRuntime
from parley.scenario import MIXED, SEQUENTIAL, build_runtime, scenario_from_dict

from .helpers import individual_scenario, one_one_protocol

RESPONDERS = pytest.mark.parametrize("responder", [SequentialResponder, MixedResponder])


def bus(responder) -> SimRuntime:
    registry = {"ips": one_one_protocol("ips")}
    model = InteractionModel({"ips": frozenset({"replier"})})
    rt = SimRuntime(seed=0)
    rt.register(AgentBase("q1"))
    rt.register(responder("d1", model.participant_refs(registry), registry))
    return rt


def deliver(rt: SimRuntime, conversation: str, performative: str, content, tag=None) -> list:
    """Send one message from q1 to d1 and return the events it set off,
    the bus's own send and deliver of it left out."""
    rt.schedule_send(
        Message(performative, content, "kv", "core", "q1", "d1", conversation, reply_with=tag)
    )
    start = len(rt.trace)
    rt.run_until_quiescent()
    return [(e.kind, e.payload) for e in rt.trace[start:] if e.kind != "deliver"]


def sends(events) -> list[tuple[str, dict]]:
    return [(p["performative"], p["content"]) for kind, p in events if kind == "send"]


@RESPONDERS
@pytest.mark.parametrize(
    "performative, content, kind",
    [("ask-one", {"q": 7}, WRONG_CONTENT), ("shout", {"q": "x"}, WRONG_STRUCTURE)],
)
def test_an_opening_nobody_takes_fails_the_thread_for_good(responder, performative, content, kind):
    rt = bus(responder)
    events = deliver(rt, "t1/d1", performative, content, tag="q1.1")
    assert sends(events) == [
        ("error-notify", {"kind": kind, "tag": "q1.1", "detected-by": "participant"}),
        (TERMINATION_WARNING, {"reason": "no-viable-role"}),
    ]
    assert [(k, p) for k, p in events if k != "send"] == [
        (
            "termination",
            {
                "conversation": "t1/d1",
                "agent": "d1",
                "status": "failed",
                "reason": "no-viable-role",
            },
        )
    ]
    # the thread is closed: even a well-formed opening is ignored now
    assert deliver(rt, "t1/d1", "ask-one", {"q": "x"}, tag="q1.2") == []


@RESPONDERS
def test_a_termination_notice_is_acknowledged_and_concludes(responder):
    rt = bus(responder)
    opened = deliver(rt, "t1/d1", "ask-one", {"q": "x"}, tag="q1.1")
    assert [p for p, _ in sends(opened)] == ["tell"]
    events = deliver(rt, "t1/d1", TERMINATION_NOTICE, {"state": "done"})
    assert sends(events) == [(TERMINATION_NOTICE, {"state": "acknowledged"})]
    assert [(k, p) for k, p in events if k != "send"] == [
        ("termination", {"conversation": "t1/d1", "agent": "d1", "status": "concluded"})
    ]
    assert deliver(rt, "t1/d1", "ask-one", {"q": "x"}, tag="q1.2") == []


@RESPONDERS
@pytest.mark.parametrize("opened", [False, True])
def test_wakes_selection_and_control_chatter_produce_nothing(responder, opened):
    rt = bus(responder)
    if opened:
        deliver(rt, "t1/d1", "ask-one", {"q": "x"}, tag="q1.1")
    for performative in (
        WAKE,
        CALL_FOR_COLLABORATION,
        READY_TO_SELECT,
        UNABLE_TO_SELECT,
        NOTIFY_ASSIGNMENT,
        STOP_SELECTION,
        TERMINATION_WARNING,
        RECOVER_AT,
    ):
        assert deliver(rt, "t1/d1", performative, {"reason": "exhausted", "point": 1}) == []


@pytest.mark.parametrize(
    "mode, actions",
    [(SEQUENTIAL, {"replacement"}), (MIXED, {"replacement", "reactivation"})],
    ids=["sequential", "mixed"],
)
def test_every_role_of_a_conversation_records_into_its_thread_journal(
    mode, actions, monkeypatch
):
    """Every role a responder enacts in a conversation - the role it
    picks, each replacement, every instance of a mixed zone, and the
    roles that judge an opening nobody takes - is a driver over the one
    journal the conversation's thread holds."""
    made: list[MachineDriver] = []
    init = MachineDriver.__init__

    def recording(driver, *args, **kwargs) -> None:
        init(driver, *args, **kwargs)
        made.append(driver)

    monkeypatch.setattr(MachineDriver, "__init__", recording)
    runtime = build_runtime(scenario_from_dict(individual_scenario(Random(1), mode, 30)))
    trace = runtime.run_until_quiescent()
    assert {e.payload["action"] for e in trace if e.kind == "recovery"} == actions
    reasons = {e.payload.get("reason") for e in trace if e.kind == "termination"}
    assert "no-viable-role" in reasons  # an opening nobody takes was judged
    responders = (SequentialResponder, MixedResponder)
    enacted = [d for d in made if isinstance(runtime.agents[d.journal.me], responders)]
    assert len(enacted) > len(made) / 2
    for driver in enacted:
        thread = runtime.agents[driver.journal.me].threads[driver.journal.conversation_id]
        assert driver.journal is thread.journal
