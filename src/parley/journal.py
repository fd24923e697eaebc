"""Interaction journals: one agent's side of one conversation.

Every agent keeps, per conversation, one journal.  It knows the route
(the conversation, this agent and its peer), hands out this side's
reply tags, and holds an append-only list of the methods the agent
executed.  A record stores the event that fired the method (a message
reception or an agent-variable change) and the events the method
produced (message emissions and variable changes); the n-th record is
``records[n - 1]``.  Error recovery reads journals to find out where a
replacement role can pick the interaction up, and truncation only ever
removes a suffix.  Tags are never reused, truncation or not.

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
    """One fired transition: its method, the event that fired it and
    the events it produced."""

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
    __slots__ = ("conversation_id", "me", "peer", "records", "_tags")

    def __init__(self, conversation_id: str, me: str, peer: str) -> None:
        self.conversation_id = conversation_id
        self.me = me
        self.peer = peer
        self.records: list[JournalRecord] = []
        self._tags = 0

    def tag(self) -> str:
        """A fresh reply tag: ``me.1``, ``me.2``, ..."""
        self._tags += 1
        return f"{self.me}.{self._tags}"

    def keep_first(self, count: int) -> None:
        """Truncate to the first ``count`` records (suffix removal only)."""
        if count < 0 or count > len(self.records):
            raise ValueError(f"cannot keep {count} of {len(self.records)} records")
        del self.records[count:]

    def __len__(self) -> int:
        return len(self.records)
