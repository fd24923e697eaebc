"""Runtime selection of interaction protocols and roles for agents
that meet without a hardwired conversation plan.

The package covers three selection styles -- joint (a meta dialogue
settles protocol and roles before anything else happens), individual
sequential (one candidate role speaks at a time, errors trigger
replacement), and individual mixed (every candidate speaks through a
coherence zone that reconciles them) -- plus a deterministic discrete
event bus to run them on.
"""

__version__ = "0.1.0"
