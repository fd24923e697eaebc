"""Exception types raised across the package."""

from __future__ import annotations


class ParleyError(Exception):
    """Base class for every error raised by this package."""


class ProtocolViolationError(ParleyError):
    """A meta-protocol message arrived that the current state forbids."""


class PointOutOfRangeError(ParleyError):
    """A recovery point does not fit the journal it is applied to."""


class NoViableRoleError(ParleyError):
    """Every role of a collection has been removed."""


class UnknownReceiverError(ParleyError):
    """A message was scheduled for an agent id nobody registered."""


class BudgetExceededError(ParleyError):
    """The simulation still had pending work at its tick budget."""


class ParseError(ParleyError):
    """A protocol or scenario document is syntactically unusable."""


class UnresolvedReferenceError(ParleyError):
    """A scenario references a protocol, role or agent that is absent."""
