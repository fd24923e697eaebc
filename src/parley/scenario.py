"""Scenario files: declarative wiring for a full simulation run.

A scenario names the protocol fixtures, the agents with their
interaction models, the tasks (initiator, capabilities, identified
participants), an optional compatibility table, fault injections, and
the seed.  Parsing loads the protocols once and resolves every cross
reference up front, so a typo fails loudly instead of producing a
silently empty run, and a parsed scenario runs from any directory.

In an open system many agents enact the same roles, so the work that
depends only on an agent's ``enacts`` is done once per distinct value:
agents whose ``enacts`` objects are equal share one checked
:class:`InteractionModel` (see ``_interaction_model``), which
``_resolve`` checks once; ``task_matches`` matches tasks once per
distinct (initiator model, capabilities), and ``build_runtime`` lists
a model's participant roles once and builds one answer table per
distinct (model, willingness).  No agent holds a model, and the
participants send one ready-to-select content per distinct offer.

Each document is read with one ``open`` and checked in one walk.  The
readers of agents and tasks, like the protocol reader's helpers, first
try a fast exit that takes a well-typed entry as it is, and fall
through to the located checks, which raise every refusal, only when an
exact-type or key test fails.

Parsing and wiring build many small objects (the JSON document, the
protocols, the records, the agents) and no reference cycles, so every
automatic collection started while they run would scan young objects
and free nothing.  ``parse_scenario`` and ``build_runtime`` run under
``runtime.collector_paused``, as a run does: the collector is paused
while a scenario is parsed, wired and run, and the young objects are
looked at once, by the first collection after it.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .agents import (
    IndividualInitiator,
    JointInitiator,
    MixedResponder,
    SelectionParticipant,
    SequentialResponder,
    answer_table,
)
from .errors import ParseError, UnresolvedReferenceError
from .joint import AGENT_ORIENTED, PROTOCOL_ORIENTED
from .model import (
    InteractionModel,
    Protocol,
    ProtocolRegistry,
    RoleRef,
    TaskDescription,
    _is_names,
    _known,
    _names,
    _new_tuple,
    _require,
    _typed,
    load_protocol,
    match_task_to_protocols,
    read_document,
)
from .patterns import content_matches
from .runtime import STRUCTURE_FIELDS, AgentBase, FaultSpec, SimRuntime, TraceEvent, collector_paused

JOINT = "joint"
SEQUENTIAL = "individual_sequential"
MIXED = "individual_mixed"
SELECTION_MODES = (JOINT, SEQUENTIAL, MIXED)

SILENT = "silent"
BEHAVIORS = ("auto", SILENT)

#: the keys each object of a scenario document may have
_SCENARIO_KEYS = frozenset({
    "scenario_id", "seed", "selection_mode", "exploration", "protocols", "agents", "tasks",
    "faults", "compatibility", "reply_deadline", "max_ticks",
})
_AGENT_KEYS = frozenset({"id", "enacts", "willing", "behavior"})
_TASK_KEYS = frozenset({"id", "initiator", "capabilities", "participants", "constraints"})
_CONSTRAINT_KEYS = frozenset({"contents"})
#: the fault ops, each with the keys its fault may have
_FAULT_KEYS = {
    "corrupt_structure": frozenset({"conversation", "ordinal", "op", "field"}),
    "corrupt_content": frozenset({"conversation", "ordinal", "op", "path"}),
}


class AgentSpec(NamedTuple):
    agent_id: str
    model: InteractionModel
    willing: bool
    behavior: str


class Scenario(NamedTuple):
    scenario_id: str
    seed: int
    selection_mode: str
    #: the protocols the scenario names, loaded, by id
    registry: ProtocolRegistry
    agents: tuple[AgentSpec, ...]
    tasks: tuple[TaskDescription, ...]
    #: directed compatibility between roles of different protocols: a pair
    #: (a, b) lets an agent enacting b answer a call from one enacting a.
    #: It is deliberately not symmetric: a plain initiator can often drive
    #: the participant of a richer dialect, while the richer initiator
    #: would starve against the plain participant
    compatibility: frozenset[tuple[RoleRef, RoleRef]]
    faults: tuple[FaultSpec, ...]
    exploration: str
    reply_deadline: int
    max_ticks: int


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _names_by_key(raw: dict, key: str, where: str) -> dict[str, tuple[str, ...]]:
    """An optional JSON object whose every value is an array of strings."""
    where = f"{where}: {key}"
    mapping = _typed(raw.get(key, {}), dict, where)
    return {name: _names(names, f"{where}: {name}") for name, names in mapping.items()}


#: the only value type of an ``enacts`` object that gets a sharing key
_ARRAY = frozenset({list})


def _interaction_model(
    entry: dict, where: str, models: dict[tuple, InteractionModel]
) -> InteractionModel:
    """The checked model of an agent's ``enacts``, one per distinct value.

    ``models`` maps the sharing key of each ``enacts`` checked so far to
    its model.  Only an object whose every value is exactly an array has
    a key, and equal keys are equal objects of equal arrays, so a hit is
    a value that passed the check.  Anything else (a role list given as
    an object or as a string, say) takes the checked path, whatever
    agents came before, and an error names the agent within ``where``.
    """
    enacts = entry.get("enacts", {})
    key = None
    if type(enacts) is dict and _ARRAY.issuperset(map(type, enacts.values())):
        key = tuple(zip(enacts, map(tuple, enacts.values())))  # (protocol, roles) pairs
        try:
            return models[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable role name, which the check refuses
            key = None
    names = _names_by_key(entry, "enacts", f"{where}: agent {entry['id']}")
    model = InteractionModel({p: frozenset(roles) for p, roles in names.items()})
    if key is not None:
        models[key] = model
    return model


def _agent(entry: dict, where: str, models: dict[tuple, InteractionModel]) -> AgentSpec:
    """The agent of one ``agents`` entry of the scenario at ``where``."""
    if type(entry) is dict and _AGENT_KEYS.issuperset(entry):
        agent_id, behavior = entry.get("id"), entry.get("behavior", "auto")
        willing = entry.get("willing", True)
        if type(agent_id) is str and behavior in BEHAVIORS and type(willing) is bool:
            model = _interaction_model(entry, where, models)
            return _new_tuple(AgentSpec, (agent_id, model, willing, behavior))
    agent_id = _require(entry, "id", f"{where}: agent", str)
    behavior = entry.get("behavior", "auto")
    if behavior not in BEHAVIORS:
        raise ParseError(f"{where}: agent {agent_id}: unknown behavior {behavior!r}")
    at = f"{where}: agent {agent_id}"
    _known(entry, _AGENT_KEYS, at)
    return AgentSpec(
        agent_id=agent_id,
        model=_interaction_model(entry, where, models),
        willing=_typed(entry.get("willing", True), bool, at, "willing"),
        behavior=behavior,
    )


def _task(entry: dict, where: str) -> TaskDescription:
    """The task of one ``tasks`` entry of the scenario at ``where``."""
    if type(entry) is dict and _TASK_KEYS.issuperset(entry):
        task_id, initiator = entry.get("id"), entry.get("initiator")
        capabilities = entry.get("capabilities", [])
        participants = entry.get("participants", {})
        constraints = entry.get("constraints", {})
        if (
            type(task_id) is str
            and type(initiator) is str
            and _is_names(capabilities)
            and type(participants) is dict
            and all(map(_is_names, participants.values()))
            and type(constraints) is dict
            and _CONSTRAINT_KEYS.issuperset(constraints)
            and type(constraints.get("contents", {})) is dict
        ):
            return _new_tuple(TaskDescription, (
                task_id,
                initiator,
                frozenset(capabilities),
                {protocol: tuple(agents) for protocol, agents in participants.items()},
                constraints.get("contents", {}),
            ))
    task_id = _require(entry, "id", f"{where}: task", str)
    at = f"{where}: task {task_id}"
    _known(entry, _TASK_KEYS, at)
    constraints = _known(entry.get("constraints", {}), _CONSTRAINT_KEYS, f"{at}: constraints")
    # the contents a run sends instead of filled patterns, by schema id
    contents = _typed(constraints.get("contents", {}), dict, f"{at}: constraints: contents")
    return TaskDescription(
        task_id=task_id,
        initiator=_require(entry, "initiator", at, str),
        required_capabilities=frozenset(
            _names(entry.get("capabilities", []), at, "capabilities")
        ),
        participants=_names_by_key(entry, "participants", at),
        contents=contents,
    )


def _integer(raw: dict, key: str, default: int, where: str, least: int | None = None) -> int:
    value = _typed(raw.get(key, default), int, where, key)
    if least is not None and value < least:
        raise ParseError(f"{where}: {key} must be at least {least}, got {value}")
    return value


def parse_scenario(name: str | Path) -> Scenario:
    """The checked scenario document ``name``: a file when it ends in
    ``.json``, else the bundled scenario of that name (see
    :func:`model.read_document`)."""
    # parsing makes no reference cycles (see the module docstring)
    with collector_paused:
        raw, path, _ = read_document(name, "scenario")
        return scenario_from_dict(raw, str(path), Path(path).parent)


def scenario_from_dict(
    raw: dict, where: str = "scenario", base_dir: Path | None = None
) -> Scenario:
    """The checked scenario of a JSON document.

    Protocols named by a relative path are looked up in ``base_dir``
    (the working directory when it is ``None``), once.
    """
    mode = _require(_known(raw, _SCENARIO_KEYS, where), "selection_mode", where)
    if mode not in SELECTION_MODES:
        raise ParseError(f"{where}: unknown selection_mode {mode!r}")
    exploration = raw.get("exploration", PROTOCOL_ORIENTED)
    if exploration not in (PROTOCOL_ORIENTED, AGENT_ORIENTED):
        raise ParseError(f"{where}: unknown exploration {exploration!r}")
    models: dict[tuple, InteractionModel] = {}  # see _interaction_model
    agents = [_agent(entry, where, models) for entry in _require(raw, "agents", where, list)]
    tasks = [_task(entry, where) for entry in _require(raw, "tasks", where, list)]
    faults = []
    at = f"{where}: fault"
    for entry in _typed(raw.get("faults", []), list, where, "faults"):
        op = _require(entry, "op", at, str)
        if op in _FAULT_KEYS:
            _known(entry, _FAULT_KEYS[op], at)
        conversation = _require(entry, "conversation", at, str)
        ordinal = _require(entry, "ordinal", at, int)
        field = entry.get("field", "performative")
        path = tuple(_typed(entry.get("path", []), list, at, "path"))
        if ordinal < 1:
            raise ParseError(f"{at}: fault ordinal is 1-based")
        if op not in _FAULT_KEYS:
            raise ParseError(f"{at}: unknown fault op {op!r}")
        if op == "corrupt_structure" and field not in STRUCTURE_FIELDS:
            raise ParseError(f"{at}: unknown structure field {field!r}")
        faults.append(_new_tuple(FaultSpec, (conversation, ordinal, op, field, path)))
    pairs = set()
    at = f"{where}: compatibility"
    for pair in _typed(raw.get("compatibility", []), list, at):
        refs = _names(pair, at)
        if len(refs) != 2:
            raise ParseError(f"{at}: expected a pair, got {pair!r:.40}")
        try:
            pairs.add((RoleRef.parse(refs[0]), RoleRef.parse(refs[1])))
        except ParseError as exc:
            raise ParseError(f"{at}: {exc}") from exc
    protocols = _names(_require(raw, "protocols", where), where, "protocols")
    scenario = Scenario(
        scenario_id=_typed(raw.get("scenario_id", "scenario"), str, where, "scenario_id"),
        seed=_integer(raw, "seed", 0, where),
        selection_mode=mode,
        registry=load_registry(protocols, base_dir),
        agents=tuple(agents),
        tasks=tuple(tasks),
        compatibility=frozenset(pairs),
        faults=tuple(faults),
        exploration=exploration,
        reply_deadline=_integer(raw, "reply_deadline", 10, where, least=1),
        max_ticks=_integer(raw, "max_ticks", 200, where, least=1),
    )
    _resolve(scenario)
    return scenario


# ---------------------------------------------------------------------------
# Reference resolution
# ---------------------------------------------------------------------------


def load_registry(protocols: tuple[str, ...], base_dir: Path | None = None) -> ProtocolRegistry:
    """The named protocols by id, each read by :func:`model.load_protocol`
    (a relative file name in ``base_dir``); two entries that load the same
    protocol id are an error."""
    registry: ProtocolRegistry = {}
    entry: dict[str, int] = {}  # protocol id -> index of the entry that loaded it
    for index, name in enumerate(protocols):
        protocol = load_protocol(name, base_dir)
        first = entry.setdefault(protocol.protocol_id, index)
        if first != index:
            raise ParseError(
                f"protocols[{first}] {protocols[first]!r} and protocols[{index}] "
                f"{name!r} both define protocol {protocol.protocol_id!r}"
            )
        registry[protocol.protocol_id] = protocol
    return registry


def _resolve(scenario: Scenario) -> None:
    """Check every cross reference; raise with a location on failure."""
    registry = scenario.registry
    specs = {spec.agent_id: spec for spec in scenario.agents}
    if len(specs) != len(scenario.agents):
        raise ParseError(f"{scenario.scenario_id}: duplicate agent ids")
    checked: set[InteractionModel] = set()  # agents with equal enacts share a model
    for spec in scenario.agents:
        if spec.model in checked:
            continue
        checked.add(spec.model)
        for protocol_id, roles in spec.model.entries.items():
            if protocol_id not in registry:
                raise UnresolvedReferenceError(
                    f"agent {spec.agent_id}: unknown protocol {protocol_id!r}"
                )
            unknown = roles.difference(registry[protocol_id].roles)
            if unknown:  # named in sorted order, whatever the hash seed
                raise UnresolvedReferenceError(
                    f"agent {spec.agent_id}: no role {protocol_id}:{min(unknown)}"
                )
    for task in scenario.tasks:
        if task.initiator not in specs:
            raise UnresolvedReferenceError(
                f"task {task.task_id}: unknown initiator {task.initiator!r}"
            )
        if specs[task.initiator].behavior == SILENT:
            raise ParseError(
                f"task {task.task_id}: initiator {task.initiator!r} is silent "
                f"and cannot run a task"
            )
        for protocol_id, agents in task.participants.items():
            if protocol_id not in registry:
                raise UnresolvedReferenceError(
                    f"task {task.task_id}: unknown protocol {protocol_id!r}"
                )
            for agent in agents:
                if agent not in specs:
                    raise UnresolvedReferenceError(
                        f"task {task.task_id}: unknown participant {agent!r}"
                    )
    require_mode_fits(scenario)
    for pair in sorted(scenario.compatibility):
        for ref in pair:
            if ref.protocol not in registry or ref.role not in registry[ref.protocol].roles:
                raise UnresolvedReferenceError(f"compatibility: no role {str(ref)!r}")


def require_own_initiators(scenario: Scenario) -> None:
    """Each task needs its own id and its own initiator, which no task
    names as a participant: the runtime hosts one behaviour per agent, so
    a second task on an initiator would never run, and an initiator takes
    an opening or a call meant for a participant as its own task's.
    ``run_scenario`` and the CLI check this; ``parse_scenario`` does not
    yet."""
    by_id: dict[str, int] = {}
    by_initiator: dict[str, str] = {}
    for index, task in enumerate(scenario.tasks):
        if task.task_id in by_id:
            raise ParseError(
                f"{scenario.scenario_id}: tasks[{by_id[task.task_id]}] and "
                f"tasks[{index}] share the id {task.task_id!r}"
            )
        if task.initiator in by_initiator:
            raise ParseError(
                f"{scenario.scenario_id}: tasks {by_initiator[task.initiator]!r} and "
                f"{task.task_id!r} share the initiator {task.initiator!r}"
            )
        by_id[task.task_id] = index
        by_initiator[task.initiator] = task.task_id
    for task in scenario.tasks:
        for agent in (a for agents in task.participants.values() for a in agents):
            if agent in by_initiator:
                raise ParseError(
                    f"{scenario.scenario_id}: task {task.task_id!r} names {agent!r} as a "
                    f"participant, but {agent!r} initiates task {by_initiator[agent]!r}"
                )


def task_matches(scenario: Scenario) -> list[list[tuple[Protocol, str]]]:
    """Per task, in task order, what :func:`model.match_task_to_protocols`
    matches to it: one match per distinct (initiator's model, capabilities)."""
    models = {spec.agent_id: spec.model for spec in scenario.agents}
    keys = [(models[task.initiator], task.required_capabilities) for task in scenario.tasks]
    found: dict[tuple[InteractionModel, frozenset[str]], list[tuple[Protocol, str]]] = {}
    for task, key in zip(scenario.tasks, keys):
        if key not in found:
            found[key] = match_task_to_protocols(task, key[0], scenario.registry)
    return [found[key] for key in keys]


def require_mode_fits(scenario: Scenario) -> None:
    """Joint selection sends no task contents.  Individual selection
    talks to one identified participant per task, and runs the first
    protocol matched to the task (:func:`task_matches`): there must be
    one, and the task's contents must each name a schema of it and fit
    its pattern."""
    if scenario.selection_mode == JOINT:
        for task in scenario.tasks:
            if task.contents:
                raise ParseError(f"task {task.task_id}: {JOINT} selection sends no contents")
        return
    for task, matched in zip(scenario.tasks, task_matches(scenario)):
        named = {a for agents in task.participants.values() for a in agents}
        if len(named) != 1:
            raise UnresolvedReferenceError(
                f"task {task.task_id}: {scenario.selection_mode} selection with "
                f"{len(named)} named participants {sorted(named)} (need exactly one)"
            )
        if not matched:
            raise UnresolvedReferenceError(
                f"task {task.task_id}: {task.initiator} initiates no protocol with the "
                f"capabilities {sorted(task.required_capabilities)}"
            )
        protocol = matched[0][0]
        for schema_id, content in task.contents.items():
            if schema_id not in protocol.schemas:
                raise UnresolvedReferenceError(
                    f"task {task.task_id}: contents: {task.initiator} initiates no "
                    f"protocol with a schema {schema_id!r}"
                )
            if not content_matches(protocol.schemas[schema_id].content_pattern, content):
                raise ParseError(
                    f"task {task.task_id}: contents: {schema_id}: {content!r:.40} "
                    f"does not match its pattern"
                )


# ---------------------------------------------------------------------------
# Wiring and running
# ---------------------------------------------------------------------------


def build_runtime(scenario: Scenario) -> SimRuntime:
    """Instantiate the bus and all agents for one run of the scenario."""
    # wiring makes no reference cycles (see the module docstring)
    with collector_paused:
        registry, table = scenario.registry, scenario.compatibility
        runtime = SimRuntime(seed=scenario.seed, max_ticks=scenario.max_ticks)
        for fault in scenario.faults:
            runtime.inject_fault(fault)
        matches = zip(scenario.tasks, task_matches(scenario))
        initiators = {task.initiator: (task, matched) for task, matched in matches}
        # agents with equal enacts share one model, whose participant roles
        # are listed once; with one willingness they answer from one table,
        # and equal role lists, whatever the model, are sent in one content
        roles: dict[InteractionModel, tuple[RoleRef, ...]] = {}
        answers: dict[tuple[InteractionModel, bool], dict] = {}
        contents: dict[tuple[RoleRef, ...], dict] = {}
        for spec in scenario.agents:
            if spec.behavior == SILENT:
                runtime.register(AgentBase(spec.agent_id))  # never answers
                continue
            if spec.agent_id in initiators:
                task, matched = initiators[spec.agent_id]
                if scenario.selection_mode == JOINT:
                    runtime.register(
                        JointInitiator(
                            spec.agent_id,
                            task,
                            matched,
                            registry,
                            mode=scenario.exploration,
                            reply_deadline=scenario.reply_deadline,
                        )
                    )
                else:  # the reader refuses an individual task with no match
                    protocol, role_id = matched[0]
                    ref = RoleRef(protocol.protocol_id, role_id)
                    runtime.register(IndividualInitiator(spec.agent_id, task, ref, registry))
                continue
            mine = roles.get(spec.model)
            if mine is None:
                mine = roles[spec.model] = spec.model.participant_refs(registry)
            if scenario.selection_mode == JOINT:
                key = (spec.model, spec.willing)
                if key not in answers:
                    answers[key] = answer_table(mine, spec.willing, table, registry, contents)
                runtime.register(SelectionParticipant(spec.agent_id, answers[key]))
            elif scenario.selection_mode == SEQUENTIAL:
                runtime.register(SequentialResponder(spec.agent_id, mine, registry))
            else:
                runtime.register(MixedResponder(spec.agent_id, mine, registry))
        return runtime


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


class TaskSummary(NamedTuple):
    task_id: str
    outcome: str
    detail: dict
    recoveries: int
    messages: int
    terminated: bool


class RunSummary(NamedTuple):
    scenario_id: str
    seed: int
    selection_mode: str
    ticks: int
    tasks: tuple[TaskSummary, ...]

    @property
    def all_terminated(self) -> bool:
        return all(task.terminated for task in self.tasks)


def summarize(scenario: Scenario, runtime: SimRuntime, trace: list[TraceEvent]) -> RunSummary:
    # one pass over the trace: per conversation, recoveries and non-self
    # sends, each send read off the message its Sent record holds
    recoveries: Counter[str] = Counter()
    messages: Counter[str] = Counter()
    for _, kind, payload in trace:
        if kind == "send":
            _, msg = payload
            if msg.sender != msg.receiver:
                messages[msg.conversation_id] += 1
        elif kind == "recovery":
            recoveries[payload.get("conversation")] += 1
    tasks = []
    for task in scenario.tasks:
        agent = runtime.agents[task.initiator]
        outcome, detail = agent.outcome or ("unresolved", {})
        tasks.append(
            TaskSummary(
                task_id=task.task_id,
                outcome=outcome,
                detail=detail,
                recoveries=recoveries[agent.conversation],
                messages=messages[agent.conversation],
                terminated=outcome in ("selected", "concluded"),
            )
        )
    return RunSummary(
        scenario_id=scenario.scenario_id,
        seed=scenario.seed,
        selection_mode=scenario.selection_mode,
        ticks=runtime.tick,
        tasks=tuple(tasks),
    )


def run_scenario(scenario: Scenario) -> tuple[list[TraceEvent], RunSummary]:
    require_own_initiators(scenario)
    runtime = build_runtime(scenario)
    trace = runtime.run_until_quiescent()
    return trace, summarize(scenario, runtime, trace)
