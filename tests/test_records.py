"""Record classes: built without ``dataclasses``, immutable ones immutable.

Defining a class through ``dataclasses`` compiles its methods from
source, and the module pulls in ``inspect`` (and with it ``ast``, ``dis``
and ``tokenize``): together they were most of the time a fresh
``parley run`` spent before running anything.  The package defines its
records as NamedTuples and plain classes instead, so importing it loads
neither module.  pytest has imported both already, so that check runs
in a fresh interpreter.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from parley.individual import InteractionError, MethodGraph
from parley.joint import CandidateMatrix
from parley.journal import DataChange, JournalRecord
from parley.mixed import OutboxEntry, ReactivationPlan
from parley.model import (
    Action,
    MessageSchema,
    Protocol,
    TaskDescription,
    Transition,
    Trigger,
    Violation,
)
from parley.runtime import FaultSpec
from parley.scenario import AgentSpec, RunSummary, Scenario, TaskSummary

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_cli_imports_without_dataclasses_or_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import parley.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


#: every immutable record that is a NamedTuple (``Message``, ``RoleRef``
#: and ``TraceEvent`` have tests of their own)
RECORDS = (
    MessageSchema,
    Trigger,
    Action,
    Transition,
    Protocol,
    Violation,
    TaskDescription,
    DataChange,
    JournalRecord,
    CandidateMatrix,
    InteractionError,
    MethodGraph,
    AgentSpec,
    Scenario,
    TaskSummary,
    RunSummary,
    OutboxEntry,
    ReactivationPlan,
    FaultSpec,
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(record):
    values = [object() for _ in record._fields]
    made = record(*values)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(made, name, "changed")
    assert list(made) == values
