"""Interaction journals.

Every agent keeps, per conversation, an append-only journal of the
methods it executed.  A record stores the event that fired the method
(a message reception or an agent-variable change) and the events the
method produced (message emissions and variable changes).  Error
recovery reads journals to find out where a replacement role can pick
the interaction up, and truncation only ever removes a suffix.

The records are NamedTuples and the journal a plain class with
``__slots__``, as everywhere in the package (see :mod:`parley.model`).
A reception and an emission of one message are equal tuples, so events
are told apart by ``isinstance`` alone and never by comparing them.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import Message


class MessageReception(NamedTuple):
    message: Message


class MessageEmission(NamedTuple):
    message: Message


class DataChange(NamedTuple):
    variable: str
    value: object


InputEvent = MessageReception | DataChange
OutputEvent = MessageEmission | DataChange


class JournalRecord(NamedTuple):
    seq: int
    method: str
    input_event: InputEvent
    output_events: tuple[OutputEvent, ...] = ()

    def input_is_message(self) -> bool:
        return isinstance(self.input_event, MessageReception)

    def emissions(self) -> tuple[Message, ...]:
        return tuple(
            ev.message for ev in self.output_events if isinstance(ev, MessageEmission)
        )


class Journal:
    __slots__ = ("conversation_id", "records")

    def __init__(self, conversation_id: str) -> None:
        self.conversation_id = conversation_id
        self.records: list[JournalRecord] = []

    def append(self, method: str, input_event: InputEvent, output_events=()) -> JournalRecord:
        record = JournalRecord(
            seq=len(self.records) + 1,
            method=method,
            input_event=input_event,
            output_events=tuple(output_events),
        )
        self.records.append(record)
        return record

    def keep_first(self, count: int) -> None:
        """Truncate to the first ``count`` records (suffix removal only)."""
        if count < 0 or count > len(self.records):
            raise ValueError(f"cannot keep {count} of {len(self.records)} records")
        del self.records[count:]

    def __len__(self) -> int:
        return len(self.records)
