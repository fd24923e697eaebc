"""Bundled protocol and scenario documents.

The JSON files are the only source: to change a protocol, edit its
document.  Loading a bundled protocol skips ``validate_protocol``, so
``TestValidation.test_bundled_protocols_are_clean`` in
``tests/test_model.py`` is where the bundled set is validated and each
protocol's category pinned.  They are loaded here by name so tests and
the command line can share them without path gymnastics.
"""

from __future__ import annotations

from pathlib import Path

from ..model import Protocol, ProtocolRegistry, load_protocol

ROOT = Path(__file__).parent
_PROTOCOLS = ROOT / "protocols"
_SCENARIOS = ROOT / "scenarios"


def protocol_path(name: str) -> Path:
    return _PROTOCOLS / f"{name}.json"


def scenario_path(name: str) -> Path:
    return _SCENARIOS / f"{name}.json"


def bundled_protocol(name: str) -> Protocol:
    return load_protocol(protocol_path(name))


def bundled_registry(*names: str) -> ProtocolRegistry:
    found = {}
    for name in names:
        protocol = bundled_protocol(name)
        found[protocol.protocol_id] = protocol
    return found
