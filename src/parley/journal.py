"""Interaction journals.

Every agent keeps, per conversation, an append-only journal of the
methods it executed.  A record stores the event that fired the method
(a message reception or an agent-variable change) and the events the
method produced (message emissions and variable changes).  Error
recovery reads journals to find out where a replacement role can pick
the interaction up, and truncation only ever removes a suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Message


@dataclass(frozen=True)
class MessageReception:
    message: Message


@dataclass(frozen=True)
class MessageEmission:
    message: Message


@dataclass(frozen=True)
class DataChange:
    variable: str
    value: object


InputEvent = MessageReception | DataChange
OutputEvent = MessageEmission | DataChange


@dataclass(frozen=True)
class JournalRecord:
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


@dataclass
class Journal:
    conversation_id: str
    records: list[JournalRecord] = field(default_factory=list)

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
