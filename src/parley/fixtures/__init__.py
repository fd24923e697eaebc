"""Bundled protocol and scenario documents, named without their
``.json`` suffix (see ``model.read_document``).

The JSON files are the only source: to change a protocol, edit its
document.  A bundled protocol loads unvalidated, so
``TestValidation.test_bundled_protocols_are_clean`` in
``tests/test_model.py`` validates the set and pins each category.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).parent
