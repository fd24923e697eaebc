"""Runtime selection of interaction protocols and roles for agents
that meet without a hardwired conversation plan.

The package covers three selection styles -- joint (a meta dialogue
settles protocol and roles before anything else happens), individual
sequential (one candidate role speaks at a time, errors trigger
replacement), and individual mixed (every candidate speaks through a
coherence zone that reconciles them) -- plus a deterministic discrete
event bus to run them on.
"""

from .errors import (
    BudgetExceededError,
    CompositeProtocolError,
    CyclicFatherRelationError,
    NoViableRoleError,
    ParleyError,
    ParseError,
    PointOutOfRangeError,
    ProtocolViolationError,
    UnknownReceiverError,
    UnknownRoleError,
    UnresolvedReferenceError,
)
from .joint import (
    AGENT_ORIENTED,
    PROTOCOL_ORIENTED,
    CandidateMatrix,
    OneNSolution,
    ReadyToSelectPayload,
    assign_roles_1_n,
    build_candidate_matrix,
    next_vector,
    select_largest_set,
)
from .model import (
    CompatibilityTable,
    InteractionModel,
    Message,
    Protocol,
    ProtocolCategory,
    ProtocolRegistry,
    RoleKind,
    RoleRef,
    RoleStateMachine,
    TaskDescription,
    classify_protocol,
    compatible,
    load_protocol,
    match_task_to_protocols,
)
from .runtime import (
    FaultSpec,
    SimRuntime,
    TraceEvent,
    render_trace,
    write_trace,
)
from .scenario import (
    RunSummary,
    Scenario,
    TaskSummary,
    build_runtime,
    parse_scenario,
    run_scenario,
    scenario_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AGENT_ORIENTED",
    "BudgetExceededError",
    "CandidateMatrix",
    "CompatibilityTable",
    "CompositeProtocolError",
    "CyclicFatherRelationError",
    "FaultSpec",
    "InteractionModel",
    "Message",
    "NoViableRoleError",
    "OneNSolution",
    "PROTOCOL_ORIENTED",
    "ParleyError",
    "ParseError",
    "PointOutOfRangeError",
    "Protocol",
    "ProtocolCategory",
    "ProtocolRegistry",
    "ProtocolViolationError",
    "ReadyToSelectPayload",
    "RoleKind",
    "RoleRef",
    "RoleStateMachine",
    "RunSummary",
    "Scenario",
    "SimRuntime",
    "TaskDescription",
    "TaskSummary",
    "TraceEvent",
    "UnknownReceiverError",
    "UnknownRoleError",
    "UnresolvedReferenceError",
    "assign_roles_1_n",
    "build_candidate_matrix",
    "build_runtime",
    "classify_protocol",
    "compatible",
    "load_protocol",
    "match_task_to_protocols",
    "next_vector",
    "parse_scenario",
    "render_trace",
    "run_scenario",
    "scenario_from_dict",
    "select_largest_set",
    "write_trace",
]
