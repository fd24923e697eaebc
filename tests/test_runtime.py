"""The message bus: ordering, budgets, fault injection, determinism."""

from __future__ import annotations

import copy
import gc
import json
import re
from collections import Counter
from functools import partial
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parley.runtime

from parley.errors import BudgetExceededError, ParleyError, ParseError, UnknownReceiverError
from parley.fixtures import ROOT as FIXTURES
from parley.model import Message, load_protocol
from parley.runtime import (
    MAX_ZERO_DELAY_HOPS,
    WAKE,
    AgentBase,
    Delivered,
    FaultSpec,
    Sent,
    SimRuntime,
    TraceEvent,
    corrupt_content,
    corrupt_structure,
    render_trace,
)
from parley.scenario import (
    MIXED,
    SEQUENTIAL,
    build_runtime,
    parse_scenario,
    run_scenario,
    scenario_from_dict,
    summarize,
)

from .generators import CONTENT_KEYS, content_trees, fault_streams
from .helpers import individual_scenario, joint_fanout_scenario, joint_scenario, sample_scenarios
from .oracles import oracle_apply_faults, oracle_delivery_order, oracle_render


def msg(sender, receiver, performative="inform", content=None, conv="c", tag=None):
    return Message(
        performative=performative,
        content={"x": "hello"} if content is None else content,
        language="kv",
        ontology="core",
        sender=sender,
        receiver=receiver,
        conversation_id=conv,
        reply_with=tag,
    )


class Recorder(AgentBase):
    """Keeps every delivery, replies to nothing."""

    def __init__(self, name):
        super().__init__(name)
        self.got: list[Message] = []

    def on_message(self, rt, m):
        self.got.append(m)


class Bouncer(AgentBase):
    """Sends every delivery straight back: a zero-delay livelock."""

    def on_message(self, rt, m):
        rt.schedule_send(msg(self.name, m.sender))


class Crasher(AgentBase):
    def on_message(self, rt, m):
        raise RuntimeError("handler failed")


class TestCorruptionOps:
    def test_structure_performative(self):
        out = corrupt_structure(msg("a", "b"), "performative")
        assert out.performative == "garbled-inform"
        assert out.content == {"x": "hello"}

    def test_structure_language_and_ontology(self):
        assert corrupt_structure(msg("a", "b"), "language").language == "garbled"
        assert corrupt_structure(msg("a", "b"), "ontology").ontology == "garbled"

    def test_structure_shape_adds_a_key(self):
        out = corrupt_structure(msg("a", "b"), "shape")
        assert out.content == {"x": "hello", "garbled": True}

    def test_structure_shape_wraps_non_dict(self):
        out = corrupt_structure(msg("a", "b", content="plain"), "shape")
        assert out.content == {"garbled": "plain"}

    def test_content_swaps_string_for_number(self):
        out = corrupt_content(msg("a", "b"), ("x",))
        assert out.content == {"x": 99}

    def test_content_swaps_number_for_string(self):
        out = corrupt_content(msg("a", "b", content={"n": 7}), ("n",))
        assert out.content == {"n": "garbled"}

    def test_content_missing_path_falls_back_to_first_leaf(self):
        out = corrupt_content(msg("a", "b", content={"x": "v", "y": "w"}), ("nope",))
        assert out.content == {"x": 99, "y": "w"}

    def test_content_without_leaves_is_untouched(self):
        out = corrupt_content(msg("a", "b", content={}), ())
        assert out.content == {}


class TestMessageImmutability:
    def test_fields_cannot_be_assigned(self):
        m = msg("a", "b")
        for name in ("performative", "content", "language", "ontology", "sender",
                     "receiver", "conversation_id", "reply_with"):
            with pytest.raises(AttributeError):
                setattr(m, name, "changed")
        assert m == msg("a", "b")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda m: corrupt_structure(m, "performative"),
            lambda m: corrupt_structure(m, "language"),
            lambda m: corrupt_structure(m, "ontology"),
            lambda m: corrupt_structure(m, "shape"),
            lambda m: corrupt_content(m, ("x",)),
            lambda m: corrupt_content(m, ("nope",)),
        ],
        ids=["performative", "language", "ontology", "shape", "content", "first-leaf"],
    )
    def test_corruption_returns_a_new_message(self, corrupt):
        original = msg("a", "b", content={"x": "hello", "n": [1, {"y": "z"}]}, tag="r1")
        out = corrupt(original)
        assert out is not original
        assert out != original
        assert original == msg("a", "b", content={"x": "hello", "n": [1, {"y": "z"}]}, tag="r1")

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("c", 1, "corrupt_structure", structure_field="shape"),
            FaultSpec("c", 1, "corrupt_content", path=("n", 1, "y")),
        ],
        ids=["structure", "content"],
    )
    def test_a_fault_leaves_the_noted_send_alone(self, spec):
        content = {"x": "hello", "n": [1, {"y": "z"}]}
        rt = SimRuntime(seed=0)
        sink = Recorder("sink")
        rt.register(sink)
        rt.register(AgentBase("src"))
        rt.inject_fault(spec)
        sent = msg("src", "sink", content=content)
        rt.schedule_send(sent)
        rt.run_until_quiescent()
        assert [e.kind for e in rt.trace] == ["send", "fault", "deliver"]
        assert sink.got[0].content != content
        assert sent.content is content
        assert content == {"x": "hello", "n": [1, {"y": "z"}]}
        assert rt.trace[0].payload["content"] == {"x": "hello", "n": [1, {"y": "z"}]}


class TestSendAndDeliver:
    def test_same_tick_fifo(self):
        rt = SimRuntime(seed=0)
        sink = Recorder("sink")
        rt.register(sink)
        rt.register(AgentBase("src"))
        rt.schedule_send(msg("src", "sink", content={"n": 1}))
        rt.schedule_send(msg("src", "sink", content={"n": 2}))
        rt.schedule_send(msg("src", "sink", content={"n": 3}))
        rt.run_until_quiescent()
        assert [m.content["n"] for m in sink.got] == [1, 2, 3]
        assert rt.tick == 0

    def test_zero_delay_reply_lands_same_tick(self):
        class Responder(AgentBase):
            def on_message(self, rt, m):
                if m.performative == "inform":
                    rt.schedule_send(msg(self.name, m.sender, performative="ack"))

        rt = SimRuntime(seed=0)
        caller = Recorder("caller")
        rt.register(caller)
        rt.register(Responder("responder"))
        rt.schedule_send(msg("caller", "responder"))
        rt.run_until_quiescent()
        assert rt.tick == 0
        assert [m.performative for m in caller.got] == ["ack"]

    def test_delay_lands_that_many_ticks_later(self):
        rt = SimRuntime(seed=0)
        sink = Recorder("sink")
        rt.register(sink)
        rt.register(AgentBase("src"))
        rt.schedule_send(msg("src", "sink"), delay=4)
        rt.run_until_quiescent()
        assert rt.tick == 4
        deliver = [e for e in rt.trace if e.kind == "deliver"]
        assert deliver[0].tick == 4

    def test_negative_delay_rejected(self):
        rt = SimRuntime(seed=0)
        rt.register(AgentBase("a"))
        with pytest.raises(ValueError):
            rt.schedule_send(msg("a", "a"), delay=-1)

    def test_unknown_receiver(self):
        rt = SimRuntime(seed=0)
        rt.register(AgentBase("a"))
        with pytest.raises(UnknownReceiverError):
            rt.schedule_send(msg("a", "ghost"))

    def test_duplicate_registration(self):
        rt = SimRuntime(seed=0)
        rt.register(AgentBase("a"))
        with pytest.raises(ValueError):
            rt.register(AgentBase("a"))

    def test_empty_system_is_quiescent_at_tick_zero(self):
        rt = SimRuntime(seed=0)
        rt.register(AgentBase("loner"))
        trace = rt.run_until_quiescent()
        assert trace == []
        assert rt.tick == 0

    def test_on_start_runs_once_across_resumes(self):
        class Starter(AgentBase):
            def __init__(self, name):
                super().__init__(name)
                self.starts = 0

            def on_start(self, rt):
                self.starts += 1

        rt = SimRuntime(seed=0)
        starter = Starter("s")
        rt.register(starter)
        rt.run_until_quiescent()
        rt.run_until_quiescent()
        assert starter.starts == 1

    def test_wake_self_is_a_timer(self):
        rt = SimRuntime(seed=0)
        sleeper = Recorder("sleeper")
        rt.register(sleeper)
        rt.wake_self("sleeper", "c", {"round": 1}, delay=6)
        rt.run_until_quiescent()
        assert rt.tick == 6
        assert sleeper.got[0].performative == WAKE
        assert sleeper.got[0].content == {"round": 1}


class TestBudget:
    def test_pending_work_beyond_budget(self):
        rt = SimRuntime(seed=0, max_ticks=5)
        rt.register(Recorder("sink"))
        rt.register(AgentBase("src"))
        rt.schedule_send(msg("src", "sink"), delay=9)
        with pytest.raises(BudgetExceededError):
            rt.run_until_quiescent()

    def test_zero_delay_livelock_is_cut_off(self):
        rt = SimRuntime(seed=0)
        rt.register(Bouncer("left"))
        rt.register(Bouncer("right"))
        rt.schedule_send(msg("left", "right"))
        with pytest.raises(BudgetExceededError, match="livelock"):
            rt.run_until_quiescent()

    def test_zero_delay_self_wake_loop_is_cut_off(self):
        class Insomniac(AgentBase):
            def on_message(self, rt, m):
                rt.wake_self(self.name, "c", {}, delay=0)

        rt = SimRuntime(seed=0)
        rt.register(Insomniac("sleeper"))
        rt.wake_self("sleeper", "c", {}, delay=0)
        with pytest.raises(BudgetExceededError, match="zero-delay livelock"):
            rt.run_until_quiescent()
        assert rt.tick == 0

    @pytest.mark.parametrize(
        "depth", [MAX_ZERO_DELAY_HOPS, MAX_ZERO_DELAY_HOPS + 1], ids=["at-limit", "beyond"]
    )
    def test_a_chain_is_cut_off_only_beyond_the_hop_limit(self, depth):
        class Countdown(AgentBase):
            def on_message(self, rt, m):
                if m.content["n"]:
                    rt.schedule_send(msg(self.name, self.name, content={"n": m.content["n"] - 1}))

        rt = SimRuntime(seed=0)
        rt.register(Countdown("c"))
        rt.schedule_send(msg("c", "c", content={"n": depth}))
        if depth <= MAX_ZERO_DELAY_HOPS:
            rt.run_until_quiescent()
        else:
            for _ in range(2):  # the message it refused stays pending
                with pytest.raises(BudgetExceededError, match="zero-delay livelock"):
                    rt.run_until_quiescent()
        assert sum(e.kind == "deliver" for e in rt.trace) == MAX_ZERO_DELAY_HOPS + 1

    def test_a_wide_shallow_tick_runs(self):
        # 48 broadcasts to 300 of 1,000 agents: a tick delivers more
        # messages than a chain may be deep, each a few hops from a call
        scenario = scenario_from_dict(joint_fanout_scenario(Random(1), 48, 1000, 300))
        runtime = build_runtime(scenario)
        trace = runtime.run_until_quiescent()
        per_tick = Counter(e.tick for e in trace if e.kind == "deliver")
        assert max(per_tick.values()) > MAX_ZERO_DELAY_HOPS
        summary = summarize(scenario, runtime, trace)
        assert all(task.outcome != "unresolved" for task in summary.tasks)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SimRuntime(seed=0, max_ticks=0)


def _ends_normally():
    rt = SimRuntime(seed=0)
    rt.register(Recorder("sink"))
    rt.register(AgentBase("src"))
    rt.schedule_send(msg("src", "sink"), delay=3)
    return rt, None


def _ends_at_the_tick_budget():
    rt = SimRuntime(seed=0, max_ticks=5)
    rt.register(Recorder("sink"))
    rt.register(AgentBase("src"))
    rt.schedule_send(msg("src", "sink"), delay=9)
    return rt, BudgetExceededError


def _ends_at_the_per_tick_limit():
    rt = SimRuntime(seed=0)
    rt.register(Bouncer("left"))
    rt.register(Bouncer("right"))
    rt.schedule_send(msg("left", "right"))
    return rt, BudgetExceededError


def _ends_in_a_handler_error():
    rt = SimRuntime(seed=0)
    rt.register(Crasher("sink"))
    rt.register(AgentBase("src"))
    rt.schedule_send(msg("src", "sink"))
    return rt, RuntimeError


@pytest.fixture
def restore_gc():
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """A run pauses automatic garbage collection and restores it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "system",
        [_ends_normally, _ends_at_the_tick_budget, _ends_at_the_per_tick_limit,
         _ends_in_a_handler_error],
        ids=["normal", "tick-budget", "per-tick-limit", "handler-error"],
    )
    def test_the_callers_setting_survives_the_run(self, system, enabled, restore_gc):
        rt, error = system()
        if enabled:
            gc.enable()
        else:
            gc.disable()
        if error is None:
            rt.run_until_quiescent()
        else:
            with pytest.raises(error):
                rt.run_until_quiescent()
        assert gc.isenabled() is enabled

    def test_no_collection_starts_inside_a_run(self, restore_gc):
        # on Python 3.10 a first call allocates its frame
        build_runtime(scenario_from_dict(joint_scenario(Random(3), 4, 8))).run_until_quiescent()
        runtime = build_runtime(scenario_from_dict(joint_scenario(Random(3), 4, 8)))
        started = _collections_started(runtime.run_until_quiescent)
        assert len(runtime.trace) > 50
        assert started and not any(started)
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "text, error",
        [
            (json.dumps(joint_scenario(Random(3), 4, 8)), None),
            ('{"selection_mode": ', ParseError),  # not JSON
            (json.dumps({"selection_mode": "joint", "agents": 1}), ParseError),
        ],
        ids=["parsed", "bad-json", "bad-field"],
    )
    def test_the_callers_setting_survives_parsing(self, tmp_path, text, error, enabled,
                                                  restore_gc):
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        if enabled:
            gc.enable()
        else:
            gc.disable()
        if error is None:
            parse_scenario(path)
        else:
            with pytest.raises(error):
                parse_scenario(path)
        assert gc.isenabled() is enabled

    def test_no_collection_starts_while_parsing(self, tmp_path, restore_gc):
        path = tmp_path / "fanout.json"
        path.write_text(json.dumps(joint_fanout_scenario(Random(1), 6, 40, 20)))
        parse_scenario(path)  # on Python 3.10 a first call allocates its frame
        started = _collections_started(partial(parse_scenario, path))
        assert started and not any(started)
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "make",
        [
            partial(individual_scenario, Random(1), SEQUENTIAL, 500),
            partial(joint_fanout_scenario, Random(1), 6, 40, 20),
        ],
        ids=["individual-500", "joint_fanout-6x40"],
    )
    def test_no_collection_starts_while_wiring(self, make, restore_gc):
        scenario = scenario_from_dict(make())
        build_runtime(scenario)  # on Python 3.10 a first call allocates its frame
        started = _collections_started(partial(build_runtime, scenario))
        assert started and not any(started)
        assert gc.isenabled()
        twice = scenario._replace(agents=scenario.agents * 2)  # each agent registered twice
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            with pytest.raises(ValueError, match="registered twice"):
                build_runtime(twice)
            assert gc.isenabled() is enabled

    def test_mutated_bundled_scenarios_fail_only_as_parley_errors(self, tmp_path, restore_gc):
        docs = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((FIXTURES / "scenarios").glob("*.json"))
        ]
        rng = Random(12)
        path = tmp_path / "mutant.json"
        outcomes = []
        for i in range(300):
            path.write_text(json.dumps(_mutate(rng.choice(docs), rng)), encoding="utf-8")
            enabled = i % 2 == 0
            if enabled:
                gc.enable()
            else:
                gc.disable()
            outcomes.append(_outcome(partial(parse_scenario, path), tmp_path))
            assert gc.isenabled() is enabled
        assert 0 < outcomes.count("accepted") < 300
        assert outcomes == MUTANT_OUTCOMES["scenarios"]

    def test_mutated_bundled_protocols_fail_only_as_parley_errors(self, tmp_path, restore_gc):
        """Each mutant is named by path from t1_joint, in place of the
        bundled protocol it was made from; a scenario that parses runs."""
        docs = {
            path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((FIXTURES / "protocols").glob("*.json"))
        }
        raw = json.loads((FIXTURES / "scenarios" / "t1_joint.json").read_text(encoding="utf-8"))
        rng = Random(13)
        path = tmp_path / "scenario.json"
        outcomes = []
        for i in range(300):
            name = rng.choice(sorted(docs))
            (tmp_path / "mutant.json").write_text(
                json.dumps(_mutate(docs[name], rng)), encoding="utf-8"
            )
            protocols = [p for p in raw["protocols"] if p != name] + ["mutant.json"]
            path.write_text(json.dumps({**raw, "protocols": protocols}), encoding="utf-8")
            enabled = i % 2 == 0
            if enabled:
                gc.enable()
            else:
                gc.disable()
            outcomes.append(_outcome(lambda: run_scenario(parse_scenario(path)), tmp_path))
            assert gc.isenabled() is enabled
        assert 0 < outcomes.count("accepted") < 300
        assert outcomes == MUTANT_OUTCOMES["protocols"]


    def test_byte_mutants_of_bundled_documents_fail_only_as_parley_errors(self, tmp_path):
        """Each mutant is a bundled document cut short, spliced with a
        piece of another or re-encoded, read as a scenario file (and run
        if it parses) or as a protocol file."""
        docs = [
            (kind[:-1], path.read_bytes())
            for kind in ("protocols", "scenarios")
            for path in sorted((FIXTURES / kind).glob("*.json"))
        ]
        rng = Random(14)
        path = tmp_path / "mutant.json"
        outcomes = []
        for _ in range(300):
            kind, data = rng.choice(docs)
            path.write_bytes(_mutate_bytes(data, [d for _, d in docs], rng))
            if kind == "scenario":
                outcome = _outcome(lambda: run_scenario(parse_scenario(path)), tmp_path)
            else:
                outcome = _outcome(partial(load_protocol, path), tmp_path)
            # the json module words its syntax errors differently across versions
            outcomes.append(re.sub(r"not valid JSON \(.*\)$", "not valid JSON", outcome))
        assert 0 < outcomes.count("accepted") < 300
        assert outcomes == BYTE_MUTANT_OUTCOMES


def _collections_started(action) -> list[bool]:
    """For each collection started during ``action`` or by the check
    after it, whether it started during ``action``; at threshold 1 any
    tracked allocation starts one."""
    started: list[bool] = []
    inside = [False]

    def note(phase, info):
        if phase == "start":
            started.append(inside[0])

    gc.enable()
    gc.collect()
    gc.callbacks.append(note)
    gc.set_threshold(1)
    try:
        inside[0] = True
        action()
        inside[0] = False
        gc.collect()  # the callback is live
    finally:
        gc.callbacks.remove(note)
    return started


#: what each seeded mutant of the two tests above produces, in order: the
#: class and text of its refusal, with the test's directory as ``<tmp>``,
#: or ``accepted``; recorded once, so a change to a reader that changes
#: any refusal's text, or the order of its checks, shows here
MUTANT_OUTCOMES = json.loads(
    (Path(__file__).parent / "data" / "mutant_outcomes.json").read_text(encoding="utf-8")
)
#: the same for the byte mutants, a JSON syntax error's detail dropped
BYTE_MUTANT_OUTCOMES = json.loads(
    (Path(__file__).parent / "data" / "byte_mutant_outcomes.json").read_text(encoding="utf-8")
)["documents"]


def _outcome(action, tmp_path) -> str:
    """What ``action`` produced: ``accepted``, or its refusal."""
    try:
        action()
    except ParleyError as exc:
        return f"{type(exc).__name__}: {exc}".replace(str(tmp_path), "<tmp>")
    return "accepted"


#: what a mutation puts in place of a document's field
_ODD_VALUES = (None, True, 0, -1, 1.5, "", "x", "nocolon", [], {}, [1], {"x": 1})


def _mutate(doc: dict, rng: Random) -> dict:
    """A copy of ``doc`` with one field, anywhere in it, replaced by an
    odd value, or removed from its object."""
    doc = copy.deepcopy(doc)
    slots = []
    pending = [doc]
    while pending:
        node = pending.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                pending.append(value)
    node, key = rng.choice(slots)
    if isinstance(node, dict) and rng.random() < 0.2:
        del node[key]
    else:
        node[key] = rng.choice(_ODD_VALUES)
    return doc


def _mutate_bytes(data: bytes, others: list[bytes], rng: Random) -> bytes:
    """``data`` cut short, with a piece of one of ``others`` spliced in,
    or with an accented letter put after one of its quotes and the whole
    encoded in Latin-1, UTF-16 (with or without its byte order mark) or
    UTF-8."""
    how = rng.choice(("cut", "splice", "encode"))
    if how == "cut":
        return data[: rng.randrange(len(data))]
    if how == "splice":
        other = rng.choice(others)
        i, k = rng.randrange(len(data)), rng.randrange(len(other))
        return data[:i] + other[k : k + rng.randrange(40)] + data[i + rng.randrange(40) :]
    text = data.decode("utf-8")
    quote = rng.choice([i for i, char in enumerate(text) if char == '"'])
    text = text[: quote + 1] + "é" + text[quote + 1 :]
    return text.encode(rng.choice(("latin-1", "utf-16", "utf-16-le", "utf-8")))


class TestFaultMechanics:
    def _system(self, *specs):
        rt = SimRuntime(seed=0)
        sink = Recorder("sink")
        rt.register(sink)
        rt.register(AgentBase("src"))
        for spec in specs:
            rt.inject_fault(spec)
        return rt, sink

    def test_ordinal_indexes_counted_traffic_only(self):
        rt, sink = self._system(
            FaultSpec(conversation="job/*", ordinal=2, op="corrupt_structure")
        )
        rt.schedule_send(msg("src", "sink", conv="job/a", content={"n": 1}))
        # none of these may advance the ordinal counter:
        rt.wake_self("sink", "job/a", {}, delay=0)
        rt.schedule_send(msg("src", "sink", performative="error-notify", conv="job/a"))
        rt.schedule_send(msg("src", "sink", conv="other", content={"n": 0}))
        rt.schedule_send(msg("src", "sink", conv="job/a", content={"n": 2}))
        rt.run_until_quiescent()
        hit = [m for m in sink.got if m.performative.startswith("garbled-")]
        assert len(hit) == 1
        assert hit[0].content == {"n": 2}

    def test_one_shot(self):
        rt, sink = self._system(
            FaultSpec(conversation="c", ordinal=1, op="corrupt_content", path=("x",))
        )
        rt.schedule_send(msg("src", "sink", content={"x": "first"}))
        rt.schedule_send(msg("src", "sink", content={"x": "second"}))
        rt.run_until_quiescent()
        assert sink.got[0].content == {"x": 99}
        assert sink.got[1].content == {"x": "second"}
        assert sum(1 for e in rt.trace if e.kind == "fault") == 1

    def test_inert_when_conversation_never_matches(self):
        rt, sink = self._system(
            FaultSpec(conversation="elsewhere/*", ordinal=1, op="corrupt_content")
        )
        rt.schedule_send(msg("src", "sink"))
        rt.run_until_quiescent()
        assert sink.got[0].content == {"x": "hello"}
        assert not any(e.kind == "fault" for e in rt.trace)

    def test_fault_event_payload(self):
        rt, _ = self._system(
            FaultSpec(conversation="c", ordinal=1, op="corrupt_structure",
                      structure_field="language")
        )
        rt.schedule_send(msg("src", "sink"))
        rt.run_until_quiescent()
        fault = next(e for e in rt.trace if e.kind == "fault")
        assert fault.payload == {
            "seq": 1, "op": "corrupt_structure", "conversation": "c", "ordinal": 1,
        }

    def test_independent_specs_stack_on_one_message(self):
        rt, sink = self._system(
            FaultSpec(conversation="c", ordinal=1, op="corrupt_structure"),
            FaultSpec(conversation="c", ordinal=1, op="corrupt_content", path=("x",)),
        )
        rt.schedule_send(msg("src", "sink"))
        rt.run_until_quiescent()
        assert sink.got[0].performative == "garbled-inform"
        assert sink.got[0].content == {"x": 99}
        assert sum(1 for e in rt.trace if e.kind == "fault") == 2

    def test_sends_are_logged_clean_faults_hit_on_delivery(self):
        rt, sink = self._system(
            FaultSpec(conversation="c", ordinal=1, op="corrupt_content", path=("x",))
        )
        rt.schedule_send(msg("src", "sink"))
        rt.run_until_quiescent()
        send = next(e for e in rt.trace if e.kind == "send")
        assert send.payload["content"] == {"x": "hello"}
        assert sink.got[0].content == {"x": 99}


def _without_faults(doc: dict) -> dict:
    doc["faults"] = []
    return doc


class TestFaultMatchingOnlyWithFaults:
    @pytest.mark.parametrize(
        "doc",
        [
            individual_scenario(Random(4), SEQUENTIAL, 4),
            _without_faults(individual_scenario(Random(4), SEQUENTIAL, 4)),
            joint_fanout_scenario(Random(7), 6, 40, 20),
        ],
        ids=["sequential-faults", "sequential", "joint-fanout"],
    )
    def test_a_run_matches_faults_only_once_one_is_injected(self, doc, monkeypatch):
        matched: list[int] = []
        apply_faults = SimRuntime._apply_faults

        def counted(rt, seq, m):
            matched.append(seq)
            return apply_faults(rt, seq, m)

        monkeypatch.setattr(SimRuntime, "_apply_faults", counted)
        runtime = build_runtime(scenario_from_dict(doc))
        trace = runtime.run_until_quiescent()
        deliveries = sum(e.kind == "deliver" for e in trace)
        assert deliveries > 20
        assert len(matched) == (deliveries if doc.get("faults") else 0)


class ScanRuntime(SimRuntime):
    """The bus with fault matching done by the oracle's scan of every spec."""

    def __init__(self):
        super().__init__(seed=0)
        self.specs: list[tuple[FaultSpec, int]] = []
        self.stream: list[tuple[str, bool]] = []

    def inject_fault(self, spec):
        super().inject_fault(spec)  # the bus matches faults once one is injected
        self.specs.append((spec, len(self.stream)))

    def _apply_faults(self, seq, m):
        self.stream.append((m.conversation_id, self._counted_for_faults(m)))
        faults = [(spec.conversation, spec.ordinal, first) for spec, first in self.specs]
        for i in oracle_apply_faults(faults, self.stream)[-1]:
            m = self._fire(seq, m, self.specs[i][0])
        return m


def _fault_spec(pattern, ordinal, op):
    name, structure_field, path = op
    return FaultSpec(
        conversation=pattern, ordinal=ordinal, op=name,
        structure_field=structure_field, path=path,
    )


def _play(rt, specs, late, first, second):
    """Deliver two streams, injecting the late spec between them."""
    sink = Recorder("sink")
    rt.register(sink)
    rt.register(AgentBase("src"))
    for spec in specs:
        rt.inject_fault(_fault_spec(*spec))
    for n, stream in enumerate((first, second)):
        if n and late is not None:
            rt.inject_fault(_fault_spec(*late))
        for i, (conv, kind, delay) in enumerate(stream):
            content = {"x": "hello", "n": i}
            if kind == "wake":
                rt.wake_self("sink", conv, content, delay)
            else:
                rt.schedule_send(msg("src", "sink", kind, content, conv), delay)
        rt.run_until_quiescent()
    return sink.got, render_trace(rt.trace)


_STRUCTURE = ("corrupt_structure", "performative", ())
_CONTENT = ("corrupt_content", "performative", ("x",))


class TestFaultMatchingAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(fault_streams())
    @example((
        [
            ("t1/c1", 1, _STRUCTURE),  # literal id
            ("t1/c1", 1, _CONTENT),  # stacks on the same message
            ("*", 2, _CONTENT),  # empty literal prefix
            ("*/c1", 3, _STRUCTURE),
            ("t1/*", 3, _CONTENT),  # one count across t1/c1 and t1/c2
            ("t?/c1", 2, _CONTENT),
            ("t[12]/c1", 1, _CONTENT),
            ("t[!1]/c1", 1, _STRUCTURE),
            ("a[ab]", 1, _STRUCTURE),
        ],
        ("t1/*", 1, _CONTENT),  # injected after the first delivery
        [
            ("t1/c1", "inform", 0), ("t1/c2", "wake", 0), ("t1/c2", "inform", 0),
            ("t2/c1", "inform", 1), ("ab", "error-notify", 0), ("t1/c2", "inform", 0),
            ("t12/c1", "inform", 0), ("ab", "inform", 2),
        ],
        [("t1/c1", "inform", 0), ("t1/c2", "inform", 1), ("t2/c1", "inform", 0)],
    ))
    def test_delivers_what_a_scan_of_every_spec_delivers(self, case):
        assert _play(SimRuntime(seed=0), *case) == _play(ScanRuntime(), *case)


class Scripted(AgentBase):
    """Sends the children of each node it is delivered, then raises if
    the node says so; a node is ``(raises, [(delay, child), ...])``."""

    def __init__(self, name, start):
        super().__init__(name)
        self.start = start

    def on_start(self, rt):
        self.send(rt, self.start)

    def send(self, rt, sends):
        for delay, node in sends:
            rt.schedule_send(msg(self.name, self.name, content={"node": node}), delay)

    def on_message(self, rt, m):
        raises, children = m.content["node"]
        self.send(rt, children)
        if raises:
            raise RuntimeError("scripted failure")


def _delivery_order(runs):
    """(tick, seq) of each delivery over one run per entry of ``runs``:
    the first run's sends are made from ``on_start``, a later run's from
    outside just before it."""
    rt = SimRuntime(seed=0)
    agent = Scripted("a", runs[0])
    rt.register(agent)
    for n, sends in enumerate(runs):
        if n:
            agent.send(rt, sends)
        try:
            rt.run_until_quiescent()
        except RuntimeError:
            pass
    return [(e.tick, e.payload["seq"]) for e in rt.trace if e.kind == "deliver"]


_DELAYS = st.integers(min_value=0, max_value=3)
_LEAF = (False, [])
_NODES = st.recursive(
    st.just(_LEAF),
    lambda children: st.tuples(
        st.integers(min_value=0, max_value=5).map(lambda n: n == 0),
        st.lists(st.tuples(_DELAYS, children), max_size=3),
    ),
    max_leaves=12,
)


class TestQueueOrderAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(_DELAYS, _NODES), max_size=4), min_size=2, max_size=2))
    @example([
        [
            (0, (False, [(0, _LEAF), (1, _LEAF)])),
            (0, (True, [(0, _LEAF), (2, _LEAF)])),  # raises mid-tick
            (0, (False, [(0, _LEAF)])),
            (2, _LEAF),
        ],
        [(0, _LEAF), (1, (False, [(0, _LEAF)]))],
    ])
    def test_delivers_in_the_order_of_one_heap(self, runs):
        assert _delivery_order(runs) == oracle_delivery_order(runs)


class Gambler(AgentBase):
    """Draws from the shared stream on every delivery, then echoes."""

    def on_message(self, rt, m):
        if m.performative != "inform":
            return
        draw = rt.rng.randrange(1_000_000)
        rt.schedule_send(
            msg(self.name, m.sender, performative="tell", content={"draw": draw})
        )


class TestDeterminism:
    def _run(self, seed):
        rt = SimRuntime(seed=seed)
        rt.register(Recorder("caller"))
        rt.register(Gambler("gambler"))
        for i in range(5):
            rt.schedule_send(
                msg("caller", "gambler", content={"n": i}), delay=i
            )
        return render_trace(rt.run_until_quiescent())

    def test_same_seed_same_bytes(self):
        assert self._run(42) == self._run(42)

    def test_different_seed_different_story(self):
        assert self._run(42) != self._run(43)


class TestTraceShape:
    def test_event_field_order_is_stable(self):
        rt = SimRuntime(seed=0)
        rt.register(Recorder("sink"))
        rt.register(AgentBase("src"))
        rt.schedule_send(msg("src", "sink", tag="m.1"))
        rt.run_until_quiescent()
        lines = render_trace(rt.trace).splitlines()
        assert lines[0] == (
            '{"tick": 0, "kind": "send", "seq": 1, "from": "src", "to": "sink", '
            '"conversation": "c", "performative": "inform", "tag": "m.1", '
            '"content": {"x": "hello"}}'
        )
        assert lines[1] == (
            '{"tick": 0, "kind": "deliver", "seq": 1, "from": "src", "to": "sink", '
            '"conversation": "c", "performative": "inform"}'
        )

    def test_bus_events_carry_the_message_itself(self):
        rt = SimRuntime(seed=0)
        rt.register(Recorder("sink"))
        rt.register(AgentBase("src"))
        sent = msg("src", "sink", tag="m.1")
        rt.schedule_send(sent)
        rt.run_until_quiescent()
        send, deliver = rt.trace
        assert (type(send), type(deliver)) == (Sent, Delivered)
        assert (send.kind, deliver.kind) == ("send", "deliver")
        assert send.message is sent and deliver.message is sent
        assert send.payload["content"] is sent.content
        assert send.seq == deliver.seq == 1
        assert send.tick == deliver.tick == 0
        assert tuple(send.payload.keys()) == _SEND_FIELDS
        assert tuple(deliver.payload.keys()) == _DELIVER_FIELDS

    def test_a_bus_record_payload_is_a_fresh_dict_of_its_fields(self):
        record = Sent(2, 4, msg("src", "sink", tag="m.1"))
        fields = {
            "seq": 4, "from": "src", "to": "sink", "conversation": "c",
            "performative": "inform", "tag": "m.1", "content": {"x": "hello"},
        }
        first, second = record.payload, record.payload
        assert type(first) is dict and first == second == fields and first is not second
        assert list(first) == list(fields)
        assert first["content"] is record.message.content
        assert tuple(record) == (record.tick, record.seq, record.message) == (2, 4, record.message)
        assert record.kind == "send"
        # a record is a plain tuple: no field is read by its trace name
        with pytest.raises(TypeError):
            record["from"]
        deliver = Delivered(2, 4, msg("src", "sink", tag="m.1"))
        assert deliver.payload == {k: fields[k] for k in _DELIVER_FIELDS}
        assert list(deliver.payload) == list(_DELIVER_FIELDS)
        assert record.as_dict() == {"tick": 2, "kind": "send", **fields}
        assert json.dumps(record.as_dict()) == json.dumps({"tick": 2, "kind": "send", **fields})
        assert deliver.as_dict() == {"tick": 2, "kind": "deliver", **deliver.payload}

    def test_an_event_is_a_tuple_holding_the_payload_it_was_given(self):
        rt = SimRuntime(seed=0)
        payload = {"conversation": "c"}
        rt.note("selection", payload)
        (event,) = rt.trace
        assert type(event) is TraceEvent and event == (0, "selection", payload)
        assert (event.tick, event.kind) == (0, "selection")
        # the note holds the very dict it was given
        assert event[2] is payload
        assert rt.trace[0].as_dict() == {"tick": 0, "kind": "selection", "conversation": "c"}

    @pytest.mark.parametrize("family", ["bundled", "joint", SEQUENTIAL, MIXED])
    def test_a_record_holds_the_very_message_and_reads_as_its_line(self, family):
        """Every send record holds the message that was scheduled, every
        deliver record the one handed to its receiver (after any fault),
        and each reads as its rendered line without the tick and kind.
        Every event has the field types ``render_trace``'s templates
        write: an int tick, a str kind, and on a record an int seq, str
        ids and a str or None tag."""
        checked = 0
        for scenario in sample_scenarios(family):
            rt = build_runtime(scenario)
            scheduled: list[Message] = []
            handed: list[Message] = []
            schedule_send = rt.schedule_send

            def scheduling(message, delay=0):
                scheduled.append(message)
                schedule_send(message, delay)

            rt.schedule_send = scheduling
            for agent in rt.agents.values():
                def handing(runtime, message, handle=agent.on_message):
                    handed.append(message)
                    handle(runtime, message)

                agent.on_message = handing
            trace = rt.run_until_quiescent()
            sends = [e for e in trace if e.kind == "send"]
            delivers = [e for e in trace if e.kind == "deliver"]
            assert len(sends) == len(scheduled) and len(delivers) == len(handed)
            assert all(type(p) is Sent for p in sends)
            assert all(type(p) is Delivered for p in delivers)
            assert all(p.message is m for p, m in zip(sends, scheduled))
            assert all(p.message is m for p, m in zip(delivers, handed))
            for event in trace:
                assert type(event.tick) is int and type(event.kind) is str
                if type(event) in (Sent, Delivered):
                    message = event.message
                    assert type(event.seq) is int
                    assert {type(message.sender), type(message.receiver)} == {str}
                    assert type(message.conversation_id) is str
                    assert type(message.performative) is str
                    assert message.reply_with is None or type(message.reply_with) is str
            for event, line in zip(trace, render_trace(trace).splitlines()):
                if event.kind in ("send", "deliver"):
                    fields = json.loads(line)
                    del fields["tick"], fields["kind"]
                    assert event.payload == fields
                    assert list(event.payload) == list(fields)
                    checked += 1
        assert checked > 100


# ---------------------------------------------------------------------------
# Rendering: one encoder per trace, the bytes of json.dumps per event
# ---------------------------------------------------------------------------

#: the trace fields of the bus's send and deliver events, in line order
_SEND_FIELDS = ("seq", "from", "to", "conversation", "performative", "tag", "content")
_DELIVER_FIELDS = _SEND_FIELDS[:5]

#: payload values: non-ASCII text, floats (NaN and infinities too), None,
#: nested lists and dicts
_RENDER_LEAVES = (
    st.text(alphabet="az\u00e9\u4e2d\U0001f600\"\\\n", max_size=4)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.booleans()
    | st.none()
)
_PAYLOAD_KEYS = st.sampled_from(CONTENT_KEYS + ("seq", "tick", "content", "\u00e9t\u00e9"))
_TEXT = st.text(alphabet="az\u00e9\u4e2d\U0001f600\"\\\n", max_size=4)


def _circular() -> list:
    loop: list = []
    loop.append({"again": loop})
    return loop


#: a send's content: plain trees, or one that json.dumps refuses deep inside
_CONTENT = content_trees(_RENDER_LEAVES) | st.builds(
    lambda bad: {"deep": [bad]},
    st.sampled_from([{1, 2}, object(), b"bytes"]) | st.builds(_circular),
)
_SEQ = st.integers(min_value=-(2**70), max_value=2**70)
_PLAIN_SEND = st.tuples(_SEQ, _TEXT, _TEXT, _TEXT, _TEXT, _TEXT | st.none(), _CONTENT)
_PLAIN_DELIVER = st.tuples(_SEQ, _TEXT, _TEXT, _TEXT, _TEXT)
#: values of other types in place of an int seq or a str id, which a dict
#: payload may hold and a bus record never does (None stays a valid tag)
_ODD = st.booleans() | st.integers(min_value=-5, max_value=5) | st.none()


def _spoil(values: tuple, at: int, value) -> tuple:
    return values[:at] + (value,) + values[at + 1:]


def _record(tick: int, values: tuple) -> Sent | Delivered:
    """The bus record at ``tick`` whose trace fields are ``values``, in
    line order."""
    seq, sender, receiver, conversation, performative, *rest = values
    tag, content = rest or (None, None)
    message = Message(performative, content, "kv", "core", sender, receiver, conversation, tag)
    return Sent(tick, seq, message) if rest else Delivered(tick, seq, message)


#: the fields of a dict send or deliver: plain, or with one field of another type
_DICT_SEND = _PLAIN_SEND | st.builds(_spoil, _PLAIN_SEND, st.integers(0, 5), _ODD)
_DICT_DELIVER = _PLAIN_DELIVER | st.builds(_spoil, _PLAIN_DELIVER, st.integers(0, 4), _ODD)


def _events():
    """Events as the bus writes them (a send or deliver record, with the
    field types of the bus, at an int tick), and notes with a dict
    payload of any values at any tick, of any kind, the fields of a send
    or deliver among them."""
    kinds = st.sampled_from(("send", "deliver", "recovery", "\u00e9v\u00e9nement"))
    ticks = st.integers(min_value=0, max_value=300)
    records = st.builds(_record, ticks, _PLAIN_SEND | _PLAIN_DELIVER)
    dicts = (
        st.dictionaries(_PAYLOAD_KEYS, content_trees(_RENDER_LEAVES), max_size=5)
        | _DICT_SEND.map(lambda v: dict(zip(_SEND_FIELDS, v)))
        | _DICT_DELIVER.map(lambda v: dict(zip(_DELIVER_FIELDS, v)))
    )
    notes = st.builds(TraceEvent, ticks | st.just(True), kinds, dicts)
    return st.lists(records | notes, max_size=8)


def _self_loop() -> list:
    loop: list = []
    loop.append(loop)
    return loop


#: contents several sends may share: plain trees, and ones json.dumps
#: refuses (a set, circular lists)
_SHARED_CONTENT = (
    content_trees(_RENDER_LEAVES)
    | st.builds(lambda: {1, 2})
    | st.builds(_circular)
    | st.builds(_self_loop)
)


@st.composite
def _shared_content_events(draw):
    """Traces whose sends reuse a few content objects, as a broadcast
    call or equal offers do, among other events.  A send is a record as
    the bus writes it, or a note with a dict of any values, and each
    carries one of the shared objects."""
    pool = draw(st.lists(_SHARED_CONTENT, min_size=1, max_size=3))
    others = draw(_events())
    ticks = st.integers(min_value=0, max_value=300)
    contents = st.sampled_from(pool)
    sends = draw(st.lists(
        st.tuples(ticks, _PLAIN_SEND, contents, st.just(True))
        | st.tuples(ticks, _DICT_SEND, contents, st.just(False)),
        min_size=2,
        max_size=8,
    ))
    events = [
        _record(tick, fields) if record
        else TraceEvent(tick, "send", dict(zip(_SEND_FIELDS, fields)))
        for tick, values, content, record in sends
        for fields in [values[:-1] + (content,)]
    ]
    for at, event in zip(draw(st.lists(st.integers(0, len(events)), max_size=len(others))), others):
        events.insert(at, event)
    return events


def _render_both(events):
    return render_trace(events), oracle_render(events)


def _assert_renders_as_json_dumps(events):
    """Equal bytes, or the same exception type and message."""
    try:
        expected = oracle_render(events)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            render_trace(events)
        assert str(got.value) == str(exc)
        return
    assert render_trace(events) == expected


def _send(tick, seq, content, sender="src", receiver="sink", tag="m.1") -> Sent:
    return Sent(tick, seq, msg(sender, receiver, content=content, tag=tag))


class TestRender:
    @settings(max_examples=150, deadline=None)
    @given(_events() | _shared_content_events())
    def test_lines_are_what_json_dumps_writes(self, events):
        _assert_renders_as_json_dumps(events)

    @settings(max_examples=40, deadline=None)
    @given(_events() | _shared_content_events())
    def test_without_the_c_encoder_the_lines_are_the_same(self, events):
        original = parley.runtime.c_make_encoder
        parley.runtime.c_make_encoder = None
        try:
            _assert_renders_as_json_dumps(events)
        finally:
            parley.runtime.c_make_encoder = original

    @pytest.mark.parametrize(
        "shared",
        [{"roles": ["cnp:contractor"]}, {1, 2}, _circular(), _self_loop()],
        ids=["plain", "set", "circular", "self-loop"],
    )
    def test_one_content_in_several_sends_renders_each_as_json_dumps_does(self, shared):
        send = _send(0, 4, shared)
        events = [
            send,
            Delivered(1, send.seq, send.message),
            _send(1, 5, shared, receiver="other"),
            TraceEvent(1, "send", send.payload),  # encoded whole
            send._replace(tick=2),
        ]
        _assert_renders_as_json_dumps(events)

    def test_a_content_shared_by_several_sends_is_encoded_once(self, monkeypatch):
        encoded: list = []
        make = parley.runtime.c_make_encoder

        def counting(*args):
            encode = make(*args)

            def counted(value, level):
                encoded.append(value)
                return encode(value, level)

            return counted

        monkeypatch.setattr(parley.runtime, "c_make_encoder", counting)
        shared = {"protocol": "cnp", "task": "t1"}
        trace = [Sent(0, n, msg("i", f"p{n}", "call", shared)) for n in range(5)] + [
            Sent(0, n, msg("p", "i", "ready", {"n": n})) for n in range(3)
        ]
        assert render_trace(trace) == oracle_render(trace)
        assert encoded == [shared, {"n": 0}, {"n": 1}, {"n": 2}]

    def test_no_text_outlives_its_call(self):
        # each content is freed with its trace, so the next call's new
        # content may get its id; it must still be encoded afresh
        for n in range(50):
            _assert_renders_as_json_dumps([_send(0, n, {"n": n})])

    @pytest.mark.parametrize(
        "change",
        [
            {},
            {"seq": True},
            {"from": 7},
            {"to": None},
            {"tag": "\u00e9\u4e2d\U0001f600"},
            {"tag": None},
            {"tag": 3},
            {"content": {"x": [float("nan"), float("inf"), -float("inf")]}},
            {"content": {"deep": [{1, 2}]}},
            {"content": _circular()},
        ],
        ids=["plain", "bool-seq", "int-from", "none-to", "non-ascii-tag", "none-tag",
             "int-tag", "nan-inf-content", "unserialisable", "circular"],
    )
    def test_bus_payloads_render_as_json_dumps_writes_them(self, change):
        send = dict(zip(_SEND_FIELDS, (4, "src", "sink", "c", "inform", "m.1", {"x": 1})))
        deliver = dict(zip(_DELIVER_FIELDS, (4, "src", "sink", "c", "inform")))
        deliver.update((k, v) for k, v in change.items() if k in deliver)
        events = [TraceEvent(2, "deliver", deliver), TraceEvent(3, "send", {**send, **change})]
        _assert_renders_as_json_dumps(events)

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "pure-python"])
    @pytest.mark.parametrize(
        "change",
        [
            {},
            {"sender": "\u00e9", "reply_with": "\u00e9\u4e2d\U0001f600"},
            {"reply_with": None},
            {"content": {"x": [float("nan"), float("inf"), -float("inf")]}},
            {"content": {"deep": [{1, 2}]}},
            {"content": _circular()},
        ],
        ids=["plain", "non-ascii-tag", "none-tag", "nan-inf-content", "unserialisable",
             "circular"],
    )
    def test_bus_records_render_as_json_dumps_writes_them(self, change, c_encoder, monkeypatch):
        if not c_encoder:
            monkeypatch.setattr(parley.runtime, "c_make_encoder", None)
        message = msg("src", "sink", content={"x": 1}, tag="m.1")._replace(**change)
        events = [Delivered(2, 4, message), Sent(3, 4, message)]
        _assert_renders_as_json_dumps(events)

    @pytest.mark.parametrize(
        "change",
        [{"sender": 7}, {"receiver": None}, {"reply_with": 3}, {"performative": 2.5}],
        ids=["int-sender", "none-receiver", "int-tag", "float-performative"],
    )
    def test_a_record_text_field_of_another_type_is_refused(self, change):
        """A record whose id, performative or tag is of a type the bus
        never writes raises TypeError rather than being written as some
        other line (a dict payload takes any value); a deliver line,
        which carries no tag, ignores its message's tag."""
        message = msg("src", "sink", content={"x": 1}, tag="m.1")._replace(**change)
        with pytest.raises(TypeError):
            render_trace([Sent(3, 4, message)])
        deliver = [Delivered(2, 4, message)]
        if "reply_with" in change:
            _assert_renders_as_json_dumps(deliver)
        else:
            with pytest.raises(TypeError):
                render_trace(deliver)

    def test_a_payload_kind_field_overwrites_the_event_kind_in_place(self):
        events = [TraceEvent(3, "recovery", {"action": "replacement", "kind": "content"})]
        got, expected = _render_both(events)
        assert got == expected
        assert got == '{"tick": 3, "kind": "content", "action": "replacement"}\n'

    def test_each_line_covers_the_awkward_values(self):
        payload = {
            "text": "\u00e9\u4e2d\U0001f600",
            "f": [0.1, -0.0, 1e300, float("nan")],
            "none": None,
            "nest": [[1, [2, {"a": [3]}]], []],
        }
        events = [TraceEvent(0, "send", payload), TraceEvent(1, "deliver", {})]
        got, expected = _render_both(events)
        assert got == expected
        assert "\\u00e9\\u4e2d\\ud83d\\ude00" in got  # ASCII escaping, as json.dumps does

    @pytest.mark.parametrize("bad", [{1, 2}, object(), b"bytes"])
    def test_an_unserialisable_value_raises_the_same_type_error(self, bad):
        events = [
            TraceEvent(0, "send", {"ok": 1}),
            TraceEvent(1, "send", {"content": {"deep": [bad]}}),
        ]
        with pytest.raises(TypeError) as expected:
            oracle_render(events)
        with pytest.raises(TypeError) as got:
            render_trace(events)
        assert str(got.value) == str(expected.value)
        notes = getattr(expected.value, "__notes__", None)
        assert getattr(got.value, "__notes__", None) == notes

    def test_a_circular_payload_is_refused_as_json_dumps_refuses_it(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            json.dumps(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            render_trace([TraceEvent(0, "send", {"loop": loop})])
