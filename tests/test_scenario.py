"""Scenario files: parsing, reference resolution, golden runs, CLI."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parley.cli
import parley.model
import parley.runtime
import parley.scenario
from parley.cli import main as cli_main
from parley.errors import ParseError, UnresolvedReferenceError
from parley.model import Violation, load_protocol
from parley.runtime import render_trace
from parley.scenario import (
    JOINT,
    MIXED,
    SEQUENTIAL,
    build_runtime,
    parse_scenario,
    require_own_initiators,
    run_scenario,
    scenario_from_dict,
    summarize,
)

from .helpers import (
    BUNDLED,
    individual_scenario,
    joint_fanout_scenario,
    joint_scenario,
    protocol_path,
    scenario_path,
)
from .oracles import oracle_summary_counts

DATA = Path(__file__).parent / "data"


def minimal_raw(**overrides):
    raw = {
        "scenario_id": "mini",
        "seed": 1,
        "selection_mode": "joint",
        "protocols": ["ips"],
        "agents": [
            {"id": "boss", "enacts": {"ips": ["asker"]}},
            {"id": "helper", "enacts": {"ips": ["replier"]}},
        ],
        "tasks": [
            {
                "id": "job",
                "initiator": "boss",
                "capabilities": ["document-query"],
                "participants": {"ips": ["helper"]},
            }
        ],
    }
    raw.update(overrides)
    return raw


def fault(**fields) -> dict:
    """A good fault of ``minimal_raw``'s task, with ``fields`` changed."""
    return {"conversation": "job/*", "ordinal": 1, "op": "corrupt_structure", **fields}


class TestParsing:
    def test_bundled_scenarios_all_parse(self):
        for name in BUNDLED:
            scenario = parse_scenario(name)
            assert scenario.scenario_id == name
            assert scenario.agents and scenario.tasks

    def test_defaults(self):
        scenario = scenario_from_dict(minimal_raw())
        assert scenario.reply_deadline == 10
        assert scenario.max_ticks == 200
        assert scenario.exploration == "protocol-oriented"
        assert scenario.faults == ()
        assert scenario.agents[0].willing is True
        assert scenario.agents[0].behavior == "auto"

    def test_missing_file(self):
        with pytest.raises(UnresolvedReferenceError, match="^no scenario file '/nowhere/else.json'$"):
            parse_scenario("/nowhere/else.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_scenario(bad)

    def test_unknown_mode(self):
        with pytest.raises(ParseError):
            scenario_from_dict(minimal_raw(selection_mode="telepathy"))

    def test_unknown_exploration(self):
        with pytest.raises(ParseError):
            scenario_from_dict(minimal_raw(exploration="depth-first"))

    def test_unknown_behavior(self):
        raw = minimal_raw()
        raw["agents"][1]["behavior"] = "chatty"
        with pytest.raises(ParseError):
            scenario_from_dict(raw)

    def test_missing_required_key(self):
        raw = minimal_raw()
        del raw["tasks"]
        with pytest.raises(ParseError):
            scenario_from_dict(raw)

    def test_bad_fault_op(self):
        raw = minimal_raw(
            faults=[{"conversation": "*", "ordinal": 1, "op": "teleport"}]
        )
        with pytest.raises(ParseError):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            None,
            [],
            {"selection_mode": "joint", "agents": [None]},
            {"selection_mode": "joint", "agents": [5]},
        ],
        ids=["null", "list", "null-agent", "number-agent"],
    )
    def test_a_value_that_is_not_an_object_is_a_located_error(self, raw, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            parse_scenario(path)
        assert str(caught.value).startswith(f"{path}:")
        assert "expected a JSON object" in str(caught.value)
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err.count("expected a JSON object") == 2

    @pytest.mark.parametrize(
        "change, complaint",
        [
            (lambda raw: raw.update(agents=5), "agents: expected a JSON array"),
            (
                lambda raw: raw["agents"][1].update(enacts=[]),
                "agent helper: enacts: expected a JSON object",
            ),
            (
                lambda raw: raw["tasks"][0].update(participants=["d4"]),
                "task job: participants: expected a JSON object",
            ),
            (lambda raw: raw.update(seed="abc"), "seed: expected an integer"),
            (lambda raw: raw.update(max_ticks=0), "max_ticks must be at least 1"),
            # a round's wake comes before the replies of its own tick, so a
            # deadline of 0 would close every round with no reply
            (lambda raw: raw.update(reply_deadline=0), "reply_deadline must be at least 1"),
            (lambda raw: raw["tasks"][0].update(id=["x"]), "task: id: expected a string"),
            (
                lambda raw: raw.update(faults=[{"conversation": 5, "ordinal": 1, "op": "x"}]),
                "fault: conversation: expected a string",
            ),
            (
                lambda raw: raw.update(compatibility=[["ips:asker", "replier"]]),
                "compatibility: bad role reference 'replier'",
            ),
            (
                lambda raw: raw["agents"][1].update(willing="false"),
                "agent helper: willing: expected a JSON boolean",
            ),
            (
                lambda raw: raw["tasks"][0].update(constraints={"contents": 5}),
                "task job: constraints: contents: expected a JSON object",
            ),
            (lambda raw: raw.update(scenario_id=5), "scenario_id: expected a string"),
            (
                lambda raw: raw["agents"][1].update(willng=False),
                "agent helper: unknown key 'willng'",
            ),
            (lambda raw: raw.update(seeds=2), "odd.json: unknown key 'seeds'"),
            (
                lambda raw: raw["tasks"][0].update(constraints={"content": {}}),
                "task job: constraints: unknown key 'content'",
            ),
            (
                lambda raw: raw.update(faults=[
                    {"conversation": "*", "ordinal": 1, "op": "corrupt_structure", "feild": "x"}
                ]),
                "fault: unknown key 'feild'",
            ),
            (
                lambda raw: raw.update(faults=[
                    {"conversation": "*", "ordinal": 1, "op": "corrupt_content", "field": "shape"}
                ]),
                "fault: unknown key 'field'",
            ),
            (
                lambda raw: raw.update(faults=[
                    {"conversation": "*", "ordinal": 1, "op": "corrupt_structure", "path": ["a"]}
                ]),
                "fault: unknown key 'path'",
            ),
            (
                lambda raw: raw["tasks"][0].update(capabilities=["document-query", "q", 5]),
                "task job: capabilities[2]: expected a string, got 5",
            ),
            # a fault's ordinal, op and field are checked in that order,
            # each after the types of the fields
            (lambda raw: raw.update(faults=[fault(ordinal=0)]), "fault: fault ordinal is 1-based"),
            (lambda raw: raw.update(faults=[fault(op="drop")]), "fault: unknown fault op 'drop'"),
            (
                lambda raw: raw.update(faults=[fault(field="colour")]),
                "fault: unknown structure field 'colour'",
            ),
            (
                lambda raw: raw.update(faults=[fault(ordinal=-1, op="drop", field="colour")]),
                "fault: fault ordinal is 1-based",
            ),
            (
                lambda raw: raw.update(faults=[fault(ordinal=0, field="colour")]),
                "fault: fault ordinal is 1-based",
            ),
            (
                lambda raw: raw.update(faults=[fault(op="drop", field="colour")]),
                "fault: unknown fault op 'drop'",
            ),
            (
                lambda raw: raw.update(faults=[fault(ordinal=0, conversation=None)]),
                "fault: conversation: expected a string, got None",
            ),
            (
                lambda raw: raw.update(faults=[fault(op="drop", path="x")]),
                "fault: path: expected a JSON array, got 'x'",
            ),
        ],
        ids=[
            "number-agents",
            "list-enacts",
            "list-participants",
            "text-seed",
            "zero-ticks",
            "zero-reply-deadline",
            "list-task-id",
            "number-fault-conversation",
            "unqualified-compatibility-role",
            "text-willing",
            "number-contents",
            "number-scenario-id",
            "misspelt-agent-willing",
            "misspelt-seed",
            "misspelt-constraint",
            "misspelt-fault-field",
            "field-on-a-content-fault",
            "path-on-a-structure-fault",
            "number-capability",
            "zero-fault-ordinal",
            "unknown-fault-op",
            "unknown-structure-field",
            "fault-ordinal-before-op-and-field",
            "fault-ordinal-before-field",
            "fault-op-before-field",
            "fault-types-before-ordinal",
            "fault-types-before-op",
        ],
    )
    def test_a_field_of_the_wrong_type_or_range_is_a_located_error(
        self, change, complaint, tmp_path, capsys
    ):
        raw = minimal_raw()
        change(raw)
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            parse_scenario(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert complaint in str(caught.value)
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err.count(complaint) == 2

    @pytest.mark.parametrize(
        "earlier, later, complaint",
        [
            (["replier"], {"replier": True}, "agent copy: enacts: ips: expected a JSON array"),
            ([], "", "agent copy: enacts: ips: expected a JSON array"),
            (["replier"], [["replier"]], "agent copy: enacts: ips[0]: expected a string"),
        ],
        ids=["object-role-list", "string-role-list", "nested-role-list"],
    )
    def test_an_enacts_like_an_earlier_one_is_still_checked(
        self, earlier, later, complaint, tmp_path, capsys
    ):
        """Agents with equal ``enacts`` share one checked model.  A role
        list given as an object, as a string or with an array inside is
        refused with the error it gets alone, even after an agent whose
        valid role list has the same elements (the keys of the object, the
        characters of the string, the roles inside the inner array)."""
        messages = []
        for before in ([], [{"id": "first", "enacts": {"ips": earlier}}]):
            raw = minimal_raw()
            raw["agents"] += before + [{"id": "copy", "enacts": {"ips": later}}]
            path = tmp_path / f"odd{len(before)}.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            with pytest.raises(ParseError) as caught:
                parse_scenario(path)
            messages.append(str(caught.value).replace(str(path), "<path>"))
            assert cli_main(["validate", str(path)]) == 2
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"<path>: {complaint}")
        assert capsys.readouterr().err.count(complaint) == 2

    def test_agents_with_equal_enacts_share_one_model(self):
        raw = minimal_raw(protocols=["ips", "request"])
        raw["agents"] += [
            {"id": "twin", "enacts": {"ips": ["replier"]}},
            {"id": "wider", "enacts": {"ips": ["replier"], "request": []}},
            {"id": "reordered", "enacts": {"request": [], "ips": ["replier"]}},
        ]
        models = {spec.agent_id: spec.model for spec in scenario_from_dict(raw).agents}
        assert models["twin"] is models["helper"]
        assert models["wider"] is not models["helper"]
        # the same object in another key order is checked on its own
        assert models["reordered"] is not models["wider"]
        assert models["reordered"].entries == models["wider"].entries

    def test_a_tick_budget_below_one_on_the_command_line_is_a_parse_error(self, capsys):
        assert cli_main(["run", "t1_joint", "--max-ticks", "0"]) == 2
        assert "--max-ticks must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, calls",
        [(["--seed", "3"], 2), (["--max-ticks", "50"], 2), (["--mode", "mixed"], 3)],
    )
    def test_only_a_new_mode_is_fitted_again(self, options, calls, monkeypatch, capsys):
        # one match for the reader's fit and one for the wiring; a seed or
        # a tick budget leaves the checked mode as it was
        matches = []
        task_matches = parley.scenario.task_matches
        monkeypatch.setattr(
            parley.scenario, "task_matches",
            lambda scenario: matches.append(1) or task_matches(scenario),
        )
        assert cli_main(["run", "t2_sequential_fault", *options]) == 0
        assert len(matches) == calls


class TestResolution:
    def _write(self, tmp_path, raw):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def test_unknown_protocol_in_enacts(self, tmp_path):
        raw = minimal_raw()
        raw["agents"][1]["enacts"]["mystery"] = ["replier"]
        with pytest.raises(UnresolvedReferenceError):
            parse_scenario(self._write(tmp_path, raw))

    def test_unknown_role_in_enacts(self, tmp_path):
        raw = minimal_raw()
        raw["agents"][1]["enacts"]["ips"] = ["king"]
        with pytest.raises(UnresolvedReferenceError):
            parse_scenario(self._write(tmp_path, raw))

    def test_a_bad_model_of_many_agents_is_named_by_the_first(self, tmp_path):
        raw = minimal_raw()
        raw["agents"] += [{"id": f"k{i}", "enacts": {"ips": ["king"]}} for i in range(3)]
        with pytest.raises(UnresolvedReferenceError, match="^agent k0: no role ips:king$"):
            parse_scenario(self._write(tmp_path, raw))

    def test_unknown_initiator(self, tmp_path):
        raw = minimal_raw()
        raw["tasks"][0]["initiator"] = "nobody"
        with pytest.raises(UnresolvedReferenceError):
            parse_scenario(self._write(tmp_path, raw))

    def test_unknown_participant(self, tmp_path):
        raw = minimal_raw()
        raw["tasks"][0]["participants"]["ips"] = ["stranger"]
        with pytest.raises(UnresolvedReferenceError):
            parse_scenario(self._write(tmp_path, raw))

    def test_duplicate_agent_ids(self, tmp_path):
        raw = minimal_raw()
        raw["agents"].append({"id": "helper", "enacts": {}})
        with pytest.raises(ParseError):
            parse_scenario(self._write(tmp_path, raw))

    def test_individual_mode_needs_exactly_one_participant(self, tmp_path):
        raw = minimal_raw(selection_mode=SEQUENTIAL)
        raw["agents"].append({"id": "extra", "enacts": {"ips": ["replier"]}})
        raw["tasks"][0]["participants"]["ips"] = ["helper", "extra"]
        with pytest.raises(UnresolvedReferenceError):
            parse_scenario(self._write(tmp_path, raw))

    NO_PROTOCOL = "task job: boss initiates no protocol with the capabilities ['document-query']"

    @pytest.mark.parametrize("mode", [SEQUENTIAL, MIXED])
    def test_an_individual_task_with_no_protocol_is_refused(self, mode, tmp_path, capsys):
        raw = minimal_raw(selection_mode=mode)
        raw["agents"][0]["enacts"] = {"ips": ["replier"]}  # boss initiates nothing
        path = self._write(tmp_path, raw)
        with pytest.raises(UnresolvedReferenceError, match=rf"^{re.escape(self.NO_PROTOCOL)}$"):
            parse_scenario(path)
        for command in ("validate", "run"):
            assert cli_main([command, str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {self.NO_PROTOCOL}\n")

    @pytest.mark.parametrize("mode", ["seq", "mixed"])
    def test_a_joint_task_with_no_protocol_is_refused_in_an_individual_mode(
        self, mode, tmp_path, capsys
    ):
        raw = minimal_raw()
        raw["agents"][0]["enacts"] = {"ips": ["replier"]}
        path = self._write(tmp_path, raw)
        assert cli_main(["run", str(path)]) == 1  # joint selection finds nothing to call
        capsys.readouterr()
        assert cli_main(["run", str(path), "--mode", mode]) == 2
        assert capsys.readouterr() == ("", f"error: {self.NO_PROTOCOL}\n")

    def test_bad_compatibility_reference(self, tmp_path):
        raw = minimal_raw(compatibility=[["ips:asker", "ips:phantom"]])
        with pytest.raises(UnresolvedReferenceError):
            parse_scenario(self._write(tmp_path, raw))

    def test_a_silent_initiator_is_rejected(self, tmp_path, capsys):
        raw = minimal_raw()
        raw["agents"][0]["behavior"] = "silent"
        path = self._write(tmp_path, raw)
        with pytest.raises(ParseError, match="task job: initiator 'boss' is silent"):
            parse_scenario(path)
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err.count("is silent") == 2

    def test_a_protocol_named_by_path_is_validated(self, tmp_path, capsys):
        doc = json.loads(protocol_path("ips").read_text(encoding="utf-8"))
        replier = next(role for role in doc["roles"] if role["role_id"] == "replier")
        replier["transitions"][0]["trigger"]["schema"] = "nope"
        (tmp_path / "broken_ips.json").write_text(json.dumps(doc), encoding="utf-8")
        path = self._write(tmp_path, minimal_raw(protocols=["broken_ips.json"]))
        with pytest.raises(ParseError) as caught:
            parse_scenario(path)
        assert str(tmp_path / "broken_ips.json") in str(caught.value)
        assert "bad-schema-ref [ips:replier]: trigger schema 'nope'" in str(caught.value)
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err.count("bad-schema-ref") == 2

    def test_a_composite_protocol_is_refused_when_it_loads(self, tmp_path, capsys):
        """An auction whose participant roles all have multiplicity N
        cannot be classified: that is a violation of the file, found by
        validate, not an error in the middle of a run."""
        doc = json.loads(protocol_path("auction").read_text(encoding="utf-8"))
        for role in doc["roles"]:
            if role["kind"] == "participant":
                role["multiplicity"] = "N"
        protocol = tmp_path / "composite.json"
        protocol.write_text(json.dumps(doc), encoding="utf-8")
        raw = json.loads(scenario_path("auction_tree").read_text(encoding="utf-8"))
        raw["protocols"] = ["composite.json"]
        path = self._write(tmp_path, raw)
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path)]) == 2
        assert cli_main(["dump-protocol", str(protocol)]) == 2
        assert capsys.readouterr().err.count("composite [auction]: several participant") == 3

    @pytest.mark.parametrize(
        "change, complaint",
        [
            (
                lambda doc: doc["roles"][1]["transitions"][0].update(trigger=1.5),
                "roles[1].transitions[0].trigger: expected a JSON object, got 1.5",
            ),
            (
                lambda doc: doc.update(capability_tags="query"),
                "capability_tags: expected a JSON array, got 'query'",
            ),
            (
                lambda doc: doc["roles"].append(dict(doc["roles"][1])),
                "roles[2].role_id: duplicate role id 'replier'",
            ),
            (
                lambda doc: doc["schemas"].append(dict(doc["schemas"][0])),
                "schemas[2].schema_id: duplicate schema id 'answer'",
            ),
            (
                lambda doc: doc["roles"][1].update(multiplicity=True),
                "roles[1].multiplicity: expected an integer or 'N', got True",
            ),
            (
                lambda doc: doc["schemas"][0].update(langauge="xml"),
                "schemas[0]: unknown key 'langauge'",
            ),
            (
                lambda doc: doc["roles"][1].update(fathr="asker"),
                "roles[1]: unknown key 'fathr'",
            ),
            (
                lambda doc: doc["roles"][1]["transitions"][0]["trigger"].update(variable="q"),
                "roles[1].transitions[0].trigger: unknown key 'variable'",
            ),
            (
                lambda doc: doc.update(omega={"any": "thing"}, note="x"),
                "top level: unknown key 'note'",
            ),
            (
                lambda doc: doc["roles"][1].update(states=["done", "p0", 5]),
                "roles[1].states[2]: expected a string, got 5",
            ),
            (
                lambda doc: doc["roles"][1]["transitions"][0]["trigger"].update(kind="send"),
                "roles[1].transitions[0].trigger.kind: unknown trigger kind 'send'",
            ),
            (
                lambda doc: doc["roles"][1]["transitions"][0]["action"].update(kind="receive"),
                "roles[1].transitions[0].action.kind: unknown action kind 'receive'",
            ),
            (
                lambda doc: doc["roles"][1]["transitions"][0]["trigger"].pop("kind"),
                "roles[1].transitions[0].trigger: missing 'kind'",
            ),
            (
                lambda doc: doc["roles"][1]["transitions"][0]["action"].pop("schema"),
                "roles[1].transitions[0].action: missing 'schema'",
            ),
            (
                lambda doc: doc["roles"][0]["transitions"][1]["action"].update(schema="answer"),
                "roles[0].transitions[1].action: unknown key 'schema'",
            ),
            (
                lambda doc: doc["roles"][1]["transitions"][0].update(
                    action={"kind": "none", "schema": "answer"}
                ),
                "roles[1].transitions[0].action: unknown key 'schema'",
            ),
            (
                lambda doc: doc["roles"][1]["transitions"][0]["trigger"].update(schema=3),
                "roles[1].transitions[0].trigger.schema: expected a string, got 3",
            ),
        ],
        ids=["number-trigger", "text-capability-tags", "second-role", "second-schema",
             "boolean-multiplicity", "misspelt-schema-language", "misspelt-role-father",
             "variable-on-a-receive-trigger", "unknown-top-level-key", "number-state",
             "send-trigger", "receive-action", "trigger-without-kind",
             "send-without-schema", "data-change-naming-a-schema",
             "none-action-naming-a-schema", "number-schema-name"],
    )
    def test_a_bad_protocol_field_is_named_by_file_and_json_path(
        self, change, complaint, tmp_path, capsys
    ):
        doc = json.loads(protocol_path("ips").read_text(encoding="utf-8"))
        change(doc)
        protocol = tmp_path / "x.json"
        protocol.write_text(json.dumps(doc), encoding="utf-8")
        path = self._write(tmp_path, minimal_raw(protocols=["x.json"]))
        with pytest.raises(ParseError) as caught:
            parse_scenario(path)
        assert str(caught.value) == f"{protocol}: malformed protocol document: {complaint}"
        for command in ("validate", "run"):
            assert cli_main([command, str(path)]) == 2
        assert cli_main(["dump-protocol", str(protocol)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"error: {protocol}: malformed protocol document: {complaint}") == 3

    def test_a_malformed_protocol_file_is_named(self, tmp_path, capsys):
        (tmp_path / "x.json").write_text(json.dumps({"protocol_id": "x"}), encoding="utf-8")
        path = self._write(tmp_path, minimal_raw(protocols=["x.json"]))
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'x.json'}: malformed protocol document:" in err

    def test_a_protocol_id_loaded_twice_is_rejected_naming_both_entries(self, tmp_path, capsys):
        (tmp_path / "x.json").write_text(
            protocol_path("ips").read_text(encoding="utf-8"), encoding="utf-8"
        )
        raw = json.loads(scenario_path("t1_joint").read_text(encoding="utf-8"))
        raw["protocols"] = ["ips", "request", "x.json"]
        path = self._write(tmp_path, raw)
        message = "protocols[0] 'ips' and protocols[2] 'x.json' both define protocol 'ips'"
        with pytest.raises(ParseError) as caught:
            parse_scenario(path)
        assert message in str(caught.value)
        assert cli_main(["validate", str(path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def _with_protocol_file(self, tmp_path):
        """A scenario naming a copy of ips by a path relative to itself."""
        (tmp_path / "x.json").write_text(
            protocol_path("ips").read_text(encoding="utf-8"), encoding="utf-8"
        )
        return self._write(tmp_path, minimal_raw(protocols=["x.json", "request"]))

    def test_a_parsed_scenario_runs_from_another_directory(self, tmp_path, monkeypatch):
        path = self._with_protocol_file(tmp_path)
        monkeypatch.chdir(tmp_path.parent)
        scenario = parse_scenario(path)
        runtime = build_runtime(scenario)
        summary = summarize(scenario, runtime, runtime.run_until_quiescent())
        assert [task.outcome for task in summary.tasks] == ["selected"]

    def test_each_protocol_is_loaded_and_validated_once(self, tmp_path, monkeypatch):
        path = self._with_protocol_file(tmp_path)
        monkeypatch.chdir(tmp_path)  # so a second load would also find the file
        calls = Counter()

        def counting(module, name):
            function = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(parley.scenario, "load_protocol")
        counting(parley.model, "validate_protocol")
        build_runtime(parse_scenario(path))
        assert calls == {"load_protocol": 2, "validate_protocol": 1}

    @pytest.mark.parametrize(
        "directory, protocols, error, message",
        [
            pytest.param(None, None, UnresolvedReferenceError, "no scenario file '{path}'",
                         id="missing-scenario"),
            pytest.param("s.json", None, UnresolvedReferenceError, "no scenario file '{path}'",
                         id="directory-scenario"),
            pytest.param(None, ["ips", "nosuch"], UnresolvedReferenceError,
                         "no bundled protocol 'nosuch'", id="unknown-bundled"),
            pytest.param(None, ["ips", "no\0such"], UnresolvedReferenceError,
                         "no bundled protocol 'no\\x00such'", id="nul-in-bundled"),
            pytest.param(None, ["ips", "request.json/x"], UnresolvedReferenceError,
                         "no bundled protocol 'request.json/x'", id="bundled-under-a-file"),
            pytest.param(None, ["x.json", "request"], UnresolvedReferenceError,
                         "no protocol file 'x.json'", id="missing-protocol-file"),
            pytest.param("x.json", ["x.json", "request"], UnresolvedReferenceError,
                         "no protocol file 'x.json'", id="directory-protocol-file"),
        ],
    )
    def test_a_path_to_no_file_is_refused_with_its_error(
        self, directory, protocols, error, message, tmp_path, capsys
    ):
        """A document is opened without first checking that its file
        exists; every path that names no file is still refused with its
        error class and text, the same through ``parse_scenario`` and the
        command line, and ``validate`` exits 2."""
        path = tmp_path / "s.json"
        if directory is not None:
            (tmp_path / directory).mkdir()
        if protocols is not None:
            raw = json.loads(scenario_path("t1_joint").read_text(encoding="utf-8"))
            path.write_text(json.dumps({**raw, "protocols": protocols}), encoding="utf-8")
        message = message.format(path=path)
        with pytest.raises(error) as caught:
            parse_scenario(path)
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


SRC = Path(__file__).resolve().parent.parent / "src"


def _bundled_raw(name: str) -> dict:
    return json.loads(scenario_path(name).read_text(encoding="utf-8"))


class TestDocuments:
    """One function finds and reads every document, so a document that
    cannot be read is refused alike through ``parse_scenario``,
    ``load_protocol`` and the command line, as a located ParleyError
    (exit 2), never as a traceback."""

    @staticmethod
    def _refused(path, error, message, capsys):
        with pytest.raises(error) as caught:
            parse_scenario(path)
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_scenario_that_is_not_utf8_is_refused(self, tmp_path, capsys):
        text = json.dumps({**_bundled_raw("t1_joint"), "scenario_id": "café"}, ensure_ascii=False)
        path = tmp_path / "latin1.json"
        path.write_bytes(text.encode("latin-1"))
        at = text.index("é")  # every character before it is one byte
        message = f"{path}: not UTF-8 (invalid continuation byte at byte {at})"
        self._refused(path, ParseError, message, capsys)

    def test_a_bundled_name_too_long_for_a_file_name_is_no_document(self, tmp_path, capsys):
        name = "x" * 300
        with pytest.raises(UnresolvedReferenceError, match=f"^no bundled scenario '{name}'$"):
            parse_scenario(name)
        assert cli_main(["validate", name]) == 2
        assert cli_main(["dump-protocol", name]) == 2
        assert capsys.readouterr().err == (
            f"error: no bundled scenario '{name}'\nerror: no bundled protocol '{name}'\n"
        )
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**_bundled_raw("t1_joint"), "protocols": [name, "request"]}))
        self._refused(path, UnresolvedReferenceError, f"no bundled protocol '{name}'", capsys)

    def test_a_bundled_name_is_a_bare_file_name(self, capsys):
        # a path would read a document of another kind
        with pytest.raises(UnresolvedReferenceError) as caught:
            parse_scenario("../protocols/ips")
        assert str(caught.value) == "no bundled scenario '../protocols/ips'"
        assert cli_main(["validate", "../protocols/ips"]) == 2
        assert cli_main(["dump-protocol", "../scenarios/t1_joint"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: no bundled scenario '../protocols/ips'\n"
            "error: no bundled protocol '../scenarios/t1_joint'\n",
        )

    def test_a_protocol_outside_the_package_is_no_bundled_protocol(self, tmp_path, capsys):
        # named as bundled, a composite auction outside the package would
        # load without the checks every other protocol file gets
        doc = json.loads(protocol_path("auction").read_text(encoding="utf-8"))
        for role in doc["roles"]:
            if role["kind"] == "participant":
                role["multiplicity"] = "N"
        (tmp_path / "composite.json").write_text(json.dumps(doc), encoding="utf-8")
        name = os.path.relpath(tmp_path / "composite", protocol_path("auction").parent)
        assert name.startswith("..")
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**_bundled_raw("auction_tree"), "protocols": [name]}))
        self._refused(path, UnresolvedReferenceError, f"no bundled protocol '{name}'", capsys)

    def test_a_document_nested_too_deeply_is_refused(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self._refused(path, ParseError, f"{path}: not valid JSON (nested too deeply)", capsys)
        with pytest.raises(ParseError, match="nested too deeply"):
            load_protocol(path)

    def test_an_integer_of_too_many_digits_is_refused(self, tmp_path, capsys):
        # the refusal names the first over-long integer by line and
        # column, past a string of digits and a number with a long fraction
        path = tmp_path / "s.json"
        raw = {**_bundled_raw("t1_joint"), "scenario_id": "9" * 5000, "seed": 0}
        long_float = '"x": 0.' + "5" * 5000 + "e1, "
        text = json.dumps(raw, indent=1).replace('"seed": 0', long_float + '"seed": -' + "9" * 5000)
        path.write_text(text)
        before = text[: text.index('"seed": -') + len('"seed": ')].split("\n")
        message = (
            f"{path}: not valid JSON (an integer of 5000 digits at line {len(before)} "
            f"column {len(before[-1]) + 1}, over the limit of 4300)"
        )
        self._refused(path, ParseError, message, capsys)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_nan_and_infinity_are_refused(self, literal, tmp_path, capsys):
        path = tmp_path / "s.json"
        text = json.dumps({**_bundled_raw("t1_joint"), "seed": 0})
        path.write_text(text.replace('"seed": 0', f'"seed": {literal}'))
        message = f"{path}: not valid JSON ({literal} is not a JSON value)"
        self._refused(path, ParseError, message, capsys)
        protocol = tmp_path / "p.json"
        text = protocol_path("ips").read_text(encoding="utf-8")
        protocol.write_text(text.replace('"?string"', literal, 1))
        with pytest.raises(ParseError, match=f"not valid JSON \\({literal} is not"):
            load_protocol(protocol)

    def test_a_key_given_twice_keeps_its_last_value(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_bundled_raw("t1_joint"))[:-1] + ', "seed": 7, "seed": 8}')
        assert parse_scenario(path).seed == 8

    def test_an_unknown_role_is_named_whatever_the_hash_seed(self, tmp_path):
        raw = _bundled_raw("auction_tree")
        raw["agents"][3]["enacts"] = {"auction": ["none", "auto"]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        errors = []
        # checked in set order, hash seeds 0 and 1 named different roles
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
            done = subprocess.run(
                [sys.executable, "-m", "parley", "validate", str(path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 2
            errors.append(done.stderr)
        assert errors == ["error: agent b3: no role auction:auto\n"] * 2

    def test_dump_protocol_validates_a_bundled_protocol(self, monkeypatch, capsys):
        violation = Violation("composite", "ips", "planted")
        monkeypatch.setattr(parley.model, "validate_protocol", lambda protocol: [violation])
        assert load_protocol("ips").protocol_id == "ips"  # bundled: loaded unchecked
        assert cli_main(["dump-protocol", "ips"]) == 2
        assert capsys.readouterr() == ("", "error: ips: invalid protocol: composite [ips]: planted\n")


class TestTaskContents:
    """A task's contents are checked when its scenario is read: each
    names a schema of a protocol its initiator can initiate and fits
    that schema's pattern, and joint selection, which sends none, has
    none."""

    @pytest.mark.parametrize(
        "contents, error, message",
        [
            ({"askk": {"attribute": "modified", "document": "d4"}}, UnresolvedReferenceError,
             "task t2: contents: q2 initiates no protocol with a schema 'askk'"),
            ({"ask": {"attribute": "modified", "document": 4}}, ParseError,
             "task t2: contents: ask: {'attribute': 'modified', 'document': 4} "
             "does not match its pattern"),
            ({"ask": {"attribute": "modified"}}, ParseError,
             "task t2: contents: ask: {'attribute': 'modified'} does not match its pattern"),
        ],
        ids=["unknown-schema", "number-for-a-string", "missing-key"],
    )
    @pytest.mark.parametrize("name", ["t2_sequential_fault", "t2_mixed_fault"])
    def test_contents_that_would_not_be_sent_are_refused(
        self, name, contents, error, message, tmp_path, capsys
    ):
        raw = _bundled_raw(name)
        raw["tasks"][0]["constraints"]["contents"] = contents
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        TestDocuments._refused(path, error, message, capsys)

    def test_joint_selection_refuses_contents(self, capsys):
        raw = _bundled_raw("t1_joint")
        raw["tasks"][0]["constraints"] = {"contents": {"ask": {"attribute": "a", "document": "d"}}}
        with pytest.raises(ParseError, match="^task t1: joint selection sends no contents$"):
            scenario_from_dict(raw)
        assert cli_main(["run", "t2_sequential_fault", "--mode", "joint"]) == 2
        assert capsys.readouterr() == ("", "error: task t2: joint selection sends no contents\n")

    def test_the_given_contents_are_sent(self):
        trace, _ = run_scenario(parse_scenario("t2_sequential_fault"))
        asks = [p.message.content for kind, p in ((e.kind, e.payload) for e in trace)
                if kind == "send" and p.message.performative == "ask-one"]
        assert asks and all(c == {"attribute": "modified", "document": "d4"} for c in asks)


def t1_joint_with_a_copy(**changes) -> dict:
    """t1_joint with its task duplicated as t1b (``changes`` apply to the copy)."""
    raw = json.loads(scenario_path("t1_joint").read_text(encoding="utf-8"))
    raw["tasks"].append({**raw["tasks"][0], "id": "t1b", **changes})
    return raw


def crossed_initiators(mode: str) -> dict:
    """Two tasks, each naming the other's initiator as its participant:
    q2 runs t2 with c1, and c1 runs t3 with q2 (q1 runs t1 with d4 among
    others, and d4 runs t1b with q1, in joint mode)."""
    if mode == JOINT:
        raw = t1_joint_with_a_copy(initiator="d4", participants={"ips": ["q1"]})
        raw["agents"][0]["enacts"]["ips"] = ["asker", "replier"]
        raw["agents"][4]["enacts"]["ips"] = ["asker", "replier"]
        return raw
    raw = _bundled_raw("t2_sequential_fault")
    raw["selection_mode"] = mode
    raw["agents"][1]["enacts"]["attr_query"] = ["querier", "server"]
    raw["tasks"].append(
        {**raw["tasks"][0], "id": "t3", "initiator": "c1", "participants": {"attr_query": ["q2"]}}
    )
    return raw


class TestTaskIdentity:
    """A task needs its own id and its own initiator, and names no
    initiator as a participant; otherwise one of two tasks would never
    run and be reported with the other's outcome, or an initiator would
    take a call or an opening meant for a participant as its own."""

    def test_a_shared_initiator_is_rejected_naming_both_tasks(self):
        scenario = scenario_from_dict(t1_joint_with_a_copy())
        with pytest.raises(ParseError, match="tasks 't1' and 't1b' share the initiator 'q1'"):
            require_own_initiators(scenario)
        with pytest.raises(ParseError, match="share the initiator"):
            run_scenario(scenario)

    def test_a_shared_id_is_rejected_naming_both_tasks(self):
        raw = t1_joint_with_a_copy(id="t1")
        raw["agents"].append({**raw["agents"][0], "id": "q2"})
        raw["tasks"][1]["initiator"] = "q2"
        with pytest.raises(ParseError, match=r"tasks\[0\] and tasks\[1\] share the id 't1'"):
            run_scenario(scenario_from_dict(raw))

    def test_own_ids_and_initiators_pass(self):
        raw = t1_joint_with_a_copy(initiator="q2")
        raw["agents"].append({**raw["agents"][0], "id": "q2"})
        _, summary = run_scenario(scenario_from_dict(raw))
        assert [(t.task_id, t.outcome) for t in summary.tasks] == [
            ("t1", "selected"), ("t1b", "selected"),
        ]
        assert all(t.messages > 0 for t in summary.tasks)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_cli_exits_two(self, command, tmp_path, capsys):
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(t1_joint_with_a_copy()), encoding="utf-8")
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'t1' and 't1b'" in err

    @pytest.mark.parametrize("mode", [JOINT, SEQUENTIAL, MIXED])
    def test_an_initiator_named_as_a_participant_is_rejected(self, mode, tmp_path, capsys):
        raw = crossed_initiators(mode)
        task, agent, other = ("t1", "d4", "t1b") if mode == JOINT else ("t2", "c1", "t3")
        message = (
            f"task {task!r} names {agent!r} as a participant, "
            f"but {agent!r} initiates task {other!r}"
        )
        scenario = scenario_from_dict(raw)
        with pytest.raises(ParseError, match=re.escape(message)):
            require_own_initiators(scenario)
        with pytest.raises(ParseError, match=re.escape(message)):
            run_scenario(scenario)
        path = tmp_path / "crossed.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        trace = tmp_path / "kept.jsonl"
        trace.write_text("kept\n", encoding="utf-8")
        for command in (["validate", str(path)], ["run", str(path), "--trace", str(trace)]):
            assert cli_main(command) == 2
            assert capsys.readouterr() == ("", f"error: {raw['scenario_id']}: {message}\n")
        assert trace.read_text(encoding="utf-8") == "kept\n"

    def test_an_initiator_named_as_its_own_participant_is_rejected(self):
        raw = _bundled_raw("t1_joint")
        raw["tasks"][0]["participants"]["ips"].append("q1")
        message = "task 't1' names 'q1' as a participant, but 'q1' initiates task 't1'"
        with pytest.raises(ParseError, match=re.escape(message)):
            run_scenario(scenario_from_dict(raw))

    def test_bundled_scenarios_have_their_own_initiators(self):
        for name in BUNDLED:
            require_own_initiators(parse_scenario(name))


def task_conversations(scenario):
    """task id -> its conversation ids, as the initiators name them."""
    out = {}
    for task in scenario.tasks:
        if scenario.selection_mode == JOINT:
            out[task.task_id] = {f"{task.task_id}!select"}
        else:
            participant = next(a for agents in task.participants.values() for a in agents)
            out[task.task_id] = {f"{task.task_id}/{participant}"}
    return out


def assert_counts_match_oracle(scenario, trace, summary):
    expected = oracle_summary_counts(trace, task_conversations(scenario))
    got = {t.task_id: (t.messages, t.recoveries) for t in summary.tasks}
    assert got == expected


class TestGoldenRuns:
    """Every bundled scenario replays byte-identically to its frozen trace.

    The traces under tests/data/ were produced by the first full run of
    each scenario (scripts/regen_goldens.py checks the narrative before
    freezing); these tests pin them.
    """

    @pytest.mark.parametrize("name", BUNDLED)
    def test_trace_bytes(self, name):
        scenario = parse_scenario(name)
        trace, _ = run_scenario(scenario)
        frozen = (DATA / f"{name}.trace.jsonl").read_text(encoding="utf-8")
        assert render_trace(trace) == frozen

    @pytest.mark.parametrize("name", BUNDLED)
    def test_summary_counts_match_trace(self, name):
        scenario = parse_scenario(name)
        trace, summary = run_scenario(scenario)
        assert_counts_match_oracle(scenario, trace, summary)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_frozen_summary(self, name):
        scenario = parse_scenario(name)
        trace, summary = run_scenario(scenario)
        frozen = json.loads((DATA / f"{name}.summary.json").read_text(encoding="utf-8"))
        assert frozen["events"] == len(trace)
        assert frozen["ticks"] == summary.ticks
        for got, want in zip(summary.tasks, frozen["tasks"]):
            assert got.task_id == want["task_id"]
            assert got.outcome == want["outcome"]
            assert got.messages == want["messages"]
            assert got.recoveries == want["recoveries"]
            assert got.terminated == want["terminated"]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_delivery_has_a_send(self, name):
        trace, _ = run_scenario(parse_scenario(name))
        sent = {e.payload["seq"] for e in trace if e.kind == "send"}
        for e in trace:
            if e.kind == "deliver":
                assert e.payload["seq"] in sent


def random_scenario(mode, seed):
    rng = Random(seed)
    if mode == JOINT:
        return scenario_from_dict(joint_scenario(rng, n_tasks=6, n_agents=12))
    return scenario_from_dict(individual_scenario(rng, mode, n_tasks=8, max_faults=3))


class TestSummaryAgainstOracle:
    """The counts the bus keeps as it records, against a scan of the trace."""

    @pytest.mark.parametrize("mode", [JOINT, SEQUENTIAL, MIXED])
    def test_seeded_random_scenarios(self, mode):
        wakes = most_recoveries = 0
        actions = Counter()
        for seed in range(6):
            scenario = random_scenario(mode, seed)
            trace, summary = run_scenario(scenario)
            assert_counts_match_oracle(scenario, trace, summary)
            wakes += sum(
                1 for e in trace
                if e.kind == "send" and e.payload["from"] == e.payload["to"]
            )
            most_recoveries = max(most_recoveries, *(t.recoveries for t in summary.tasks))
            actions.update(e.payload["action"] for e in trace if e.kind == "recovery")
        # the cases the counts must get right: uncounted wakes, repeated
        # recoveries, and replacements, whose note carries a kind of its own
        if mode == JOINT:
            assert wakes > 0
        else:
            assert most_recoveries >= 2
            assert actions["replacement"] > 0

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        mode=st.sampled_from([SEQUENTIAL, MIXED]),
        n_tasks=st.integers(min_value=1, max_value=4),
        max_faults=st.integers(min_value=1, max_value=3),
    )
    def test_individual_runs_with_one_to_three_faults_per_task(
        self, seed, mode, n_tasks, max_faults
    ):
        doc = individual_scenario(Random(seed), mode, n_tasks, max_faults)
        scenario = scenario_from_dict(doc)
        assert_counts_match_oracle(scenario, *run_scenario(scenario))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n_tasks=st.integers(min_value=1, max_value=6),
        size=st.integers(min_value=8, max_value=40),
        share=st.floats(min_value=0.25, max_value=1.0),
    )
    def test_joint_fanouts(self, seed, n_tasks, size, share):
        doc = joint_fanout_scenario(Random(seed), n_tasks, size, max(1, int(size * share)))
        scenario = scenario_from_dict(doc)
        assert_counts_match_oracle(scenario, *run_scenario(scenario))


class TestValidScenarioFuzz:
    """Seeded random valid scenarios: both individual modes with 1-3
    faults per task, and joint selection over a pool with silent and
    unwilling agents.  Whatever the faults, a run must not raise, leave
    a task unresolved, or send a message it never delivers."""

    def test_no_run_raises_or_leaves_work_undone(self):
        runs = 0
        for seed in range(400):
            rng = Random(seed)
            docs = [
                individual_scenario(Random(seed), mode, rng.randint(1, 4), max_faults)
                for mode in (SEQUENTIAL, MIXED)
                for max_faults in (1, 2, 3)
            ]
            docs.append(joint_scenario(Random(seed), rng.randint(1, 4), rng.randint(4, 10)))
            for doc in docs:
                where = f"seed {seed}, {doc['scenario_id']}"
                trace, summary = run_scenario(scenario_from_dict(doc))
                assert [t.task_id for t in summary.tasks] == [t["id"] for t in doc["tasks"]]
                assert all(t.outcome != "unresolved" for t in summary.tasks), where
                sent = Counter(e.payload.seq for e in trace if e.kind == "send")
                delivered = Counter(e.payload.seq for e in trace if e.kind == "deliver")
                assert sent == delivered, where
                runs += 1
        assert runs == 2800


class IterationCountingList(list):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestScaling:
    """Per-task work stays flat as tasks are added: counted, not timed."""

    def _run(self, mode, n_tasks, monkeypatch):
        scenario = scenario_from_dict(individual_scenario(Random(n_tasks), mode, n_tasks))
        calls = 0

        def counting_fnmatch(name, pattern):
            nonlocal calls
            calls += 1
            return fnmatch(name, pattern)

        monkeypatch.setattr(parley.runtime, "fnmatch", counting_fnmatch)
        runtime = build_runtime(scenario)
        trace = IterationCountingList(runtime.run_until_quiescent())
        summary = summarize(scenario, runtime, trace)
        assert len(summary.tasks) == n_tasks
        return calls / n_tasks, trace.iterations

    @pytest.mark.parametrize("mode", [SEQUENTIAL, MIXED])
    def test_fault_matching_and_summary_stay_linear(self, mode, monkeypatch):
        small = self._run(mode, 10, monkeypatch)
        large = self._run(mode, 200, monkeypatch)
        assert small[0] == large[0]  # fnmatch calls per task
        assert small[1] == large[1] == 0  # summarize does not read the trace


class TestCli:
    def test_run_bundled_by_name(self, capsys):
        assert cli_main(["run", "t1_joint"]) == 0
        out = capsys.readouterr().out
        assert "task t1: selected" in out

    def test_run_exit_one_when_a_task_fails(self):
        assert cli_main(["run", "t1_joint_refusal"]) == 1

    def test_run_writes_trace_file(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert cli_main(["run", "t2_mixed_fault", "--trace", str(out)]) == 0
        capsys.readouterr()
        frozen = (DATA / "t2_mixed_fault.trace.jsonl").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == frozen

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_run_refuses_a_trace_path_it_cannot_write_before_running(
        self, where, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "no" / "run.jsonl" if where == "missing-directory" else tmp_path
        reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
        ran = []
        monkeypatch.setattr(parley.cli, "run_scenario", ran.append)
        assert cli_main(["run", "t1_joint", "--trace", str(path)]) == 2
        error = f"error: --trace {path}: cannot write the trace ({reason})\n"
        assert capsys.readouterr() == ("", error)
        assert ran == []

    def test_run_seed_override(self, capsys):
        assert cli_main(["run", "t1_joint", "--seed", "99"]) == 0
        assert "seed=99" in capsys.readouterr().out

    def test_run_mode_override_guard(self, capsys):
        assert cli_main(["run", "t1_joint", "--mode", "seq"]) == 2
        assert "need exactly one" in capsys.readouterr().err

    def test_run_mode_override_crossover(self, capsys):
        code = cli_main(["run", "t2_sequential_fault", "--mode", "mixed", "--seed", "3"])
        assert code == 0
        assert "concluded" in capsys.readouterr().out

    def test_validate_ok(self, capsys):
        assert cli_main(["validate", "cnp_largest_set"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_broken(self, tmp_path, capsys):
        raw = minimal_raw()
        raw["tasks"][0]["initiator"] = "nobody"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli_main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert cli_main(["run", "does_not_exist"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "no/such/dir/t1_joint.json"],
            ["validate", "no/such/dir/t1_joint.json"],
            ["dump-protocol", "typo/ips.json"],
        ],
    )
    def test_a_missing_path_is_not_the_bundled_file_of_its_stem(self, argv, capsys):
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"file {argv[1]!r}" in err

    def test_a_directory_is_neither_read_nor_taken_for_a_bundled_name(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t1_joint").mkdir()
        (tmp_path / "ips.json").mkdir()
        assert cli_main(["validate", "t1_joint"]) == 0  # the bundled scenario
        assert cli_main(["dump-protocol", "ips.json"]) == 2
        raw = json.loads(scenario_path("t1_joint").read_text(encoding="utf-8"))
        raw["protocols"] = ["ips.json", "request"]
        (tmp_path / "s.json").write_text(json.dumps(raw), encoding="utf-8")
        assert cli_main(["validate", "s.json"]) == 2
        assert capsys.readouterr().err.count("error: no protocol file 'ips.json'") == 2
        with pytest.raises(UnresolvedReferenceError, match="no scenario file"):
            parse_scenario(tmp_path / "ips.json")

    def test_dump_protocol(self, capsys):
        assert cli_main(["dump-protocol", "attr_query"]) == 0
        out = capsys.readouterr().out
        assert "role querier" in out
        assert "aq-bail" in out

    def test_dump_protocol_validates_the_file(self, tmp_path, capsys):
        doc = json.loads(protocol_path("ips").read_text(encoding="utf-8"))
        replier = next(role for role in doc["roles"] if role["role_id"] == "replier")
        replier["transitions"][0]["trigger"]["schema"] = "nope"
        path = tmp_path / "broken_ips.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["dump-protocol", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {path}: invalid protocol: " in err
        assert "bad-schema-ref [ips:replier]: trigger schema 'nope'" in err

    def test_dump_protocol_prints_the_omega_block(self, tmp_path, capsys):
        doc = json.loads(protocol_path("ips").read_text(encoding="utf-8"))
        doc["omega"] = {"note": ["anything", 1]}
        path = tmp_path / "noted_ips.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["dump-protocol", str(path)]) == 0
        assert '  omega {"note": ["anything", 1]}\n' in capsys.readouterr().out


class TestSchemaEnvelope:
    @pytest.mark.parametrize("mode", [SEQUENTIAL, MIXED])
    def test_domain_messages_carry_the_language_of_their_schema(self, mode, tmp_path):
        """t2_sequential_fault without its fault, every schema in fipa-sl."""
        raw = json.loads(scenario_path("t2_sequential_fault").read_text(encoding="utf-8"))
        for name in raw["protocols"]:
            doc = json.loads(protocol_path(name).read_text(encoding="utf-8"))
            for schema in doc["schemas"]:
                schema["language"] = "fipa-sl"
            (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        raw.update(
            selection_mode=mode,
            protocols=[f"{name}.json" for name in raw["protocols"]],
            faults=[],
        )
        path = tmp_path / "fipa_sl.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        _, summary = run_scenario(parse_scenario(path))
        assert [task.outcome for task in summary.tasks] == ["concluded"]


class TestDeterminism:
    def test_same_scenario_same_bytes(self):
        scenario = parse_scenario("t2_mixed_fault")
        first, _ = run_scenario(scenario)
        second, _ = run_scenario(scenario)
        assert render_trace(first) == render_trace(second)

    def test_mode_constants_are_distinct(self):
        assert len({JOINT, SEQUENTIAL, MIXED}) == 3
