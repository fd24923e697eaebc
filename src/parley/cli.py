"""Command line front end.

``parley run`` executes a scenario and reports one line per task;
``parley validate`` just parses and resolves; ``parley dump-protocol``
checks a bundled or on-disk protocol document, as a scenario naming it
by path would, and prints its role machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .errors import ParleyError, ParseError, UnresolvedReferenceError
from .model import Protocol, load_protocol, require_valid
from .runtime import render_trace
from .scenario import (
    JOINT,
    MIXED,
    SEQUENTIAL,
    Scenario,
    parse_scenario,
    require_mode_fits,
    require_own_initiators,
    run_scenario,
)

MODE_ALIASES = {
    "joint": JOINT,
    "seq": SEQUENTIAL,
    "mixed": MIXED,
}


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.mode is not None:
        changes["selection_mode"] = MODE_ALIASES[args.mode]
    if args.max_ticks is not None:
        if args.max_ticks < 1:
            raise ParseError(f"--max-ticks must be at least 1, got {args.max_ticks}")
        changes["max_ticks"] = args.max_ticks
    if not changes:
        return scenario
    scenario = scenario._replace(**changes)
    if args.mode is not None:  # the reader fitted the mode it read
        require_mode_fits(scenario)
    return scenario


def cmd_run(args) -> int:
    scenario = _apply_overrides(parse_scenario(args.scenario), args)
    require_own_initiators(scenario)  # a refused scenario leaves the trace file as it was
    try:  # opened before the run, so a path it cannot write runs nothing
        out = open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext()
    except OSError as exc:
        raise ParseError(f"--trace {args.trace}: cannot write the trace ({exc.strerror})") from exc
    with out:
        trace, summary = run_scenario(scenario)
        if args.trace:
            out.write(render_trace(trace))
    print(f"{summary.scenario_id}: mode={summary.selection_mode} "
          f"seed={summary.seed} ticks={summary.ticks} events={len(trace)}")
    for task in summary.tasks:
        detail = json.dumps(task.detail, sort_keys=True) if task.detail else "{}"
        print(f"  task {task.task_id}: {task.outcome} "
              f"messages={task.messages} recoveries={task.recoveries} {detail}")
    return 0 if summary.all_terminated else 1


def cmd_validate(args) -> int:
    scenario = parse_scenario(args.scenario)
    require_own_initiators(scenario)
    print(f"{scenario.scenario_id}: ok "
          f"({len(scenario.agents)} agents, {len(scenario.tasks)} tasks, "
          f"{len(scenario.registry)} protocols)")
    return 0


def _dump_protocol(protocol: Protocol) -> None:
    print(f"protocol {protocol.protocol_id} "
          f"capabilities={sorted(protocol.capability_tags)}")
    if protocol.omega is not None:
        print(f"  omega {json.dumps(protocol.omega, sort_keys=True)}")
    for schema in protocol.schemas.values():
        print(f"  schema {schema.schema_id}: {schema.performative} "
              f"{json.dumps(schema.content_pattern, sort_keys=True)}")
    for role_id in sorted(protocol.roles):
        machine = protocol.roles[role_id]
        head = f"  role {role_id} [{machine.kind.value} x{machine.multiplicity}]"
        if machine.father:
            head += f" father={machine.father}"
        print(head)
        print(f"    states: {machine.initial_state} -> "
              f"{sorted(machine.terminal_states)}")
        for t in machine.transitions:
            trig, act = t.trigger, t.action
            left = f"{trig.kind} {trig.schema_id if trig.kind == 'receive' else trig.variable}"
            texts = {"send": f"send {act.schema_id}", "data_change": f"set {act.variable}"}
            right = texts.get(act.kind, "-")
            print(f"    {t.from_state} --{t.method}: {left} / {right}--> {t.to_state}")


def cmd_dump_protocol(args) -> int:
    # a bundled protocol loads unchecked, and none is printed unchecked
    _dump_protocol(require_valid(load_protocol(args.protocol), args.protocol))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parley",
        description="Run protocol-selection scenarios on the simulated message bus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and print a per-task report")
    run_p.add_argument("scenario", help="scenario file or bundled scenario name")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--trace", default=None, help="write the JSON Lines trace here")
    run_p.add_argument("--mode", choices=sorted(MODE_ALIASES), default=None,
                       help="override the selection mode")
    run_p.add_argument("--max-ticks", type=int, default=None, dest="max_ticks",
                       help="override the tick budget")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="parse a scenario and resolve every reference")
    val_p.add_argument("scenario", help="scenario file or bundled scenario name")
    val_p.set_defaults(func=cmd_validate)

    dump_p = sub.add_parser("dump-protocol", help="print the role machines of a protocol")
    dump_p.add_argument("protocol", help="protocol file or bundled protocol name")
    dump_p.set_defaults(func=cmd_dump_protocol)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParleyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, UnresolvedReferenceError)) else 3


if __name__ == "__main__":
    sys.exit(main())
