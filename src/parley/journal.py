"""Interaction journals: one agent's side of one conversation.

Every agent keeps, per conversation, one journal.  It knows the route
(the conversation, this agent and its peer), hands out this side's
reply tags, and holds an append-only list of the methods the agent
executed.  A record stores the event that fired the method (a message
reception or an agent-variable change) and what the method produced (a
message emission, a variable change, or nothing); the n-th record is
``records[n - 1]``.  Error recovery reads journals to find out where a
replacement role can pick the interaction up, and truncation only ever
removes a suffix.  Tags are never reused, truncation or not.

The records are NamedTuples and the journal a plain class with
``__slots__``, as everywhere in the package (see :mod:`parley.model`).
A record holds the values themselves: the :class:`~parley.model.Message`
received or the :class:`DataChange` that fired the method, and the
message sent, the change written or None, since a transition's one
action makes at most one.  A journal is one side of a conversation, so
a message in a record's input was received and one in its output was
sent; ``isinstance(event, Message)`` tells a message from a change.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import Message


class DataChange(NamedTuple):
    variable: str
    value: object


class JournalRecord(NamedTuple):
    """One fired transition: its method, the event that fired it and
    what its action produced."""

    method: str
    input_event: Message | DataChange
    output: Message | DataChange | None = None


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
