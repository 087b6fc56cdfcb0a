"""Operational baseline machines (SC interleaving, x86-TSO store buffers)."""

from .._lazy import attach

_LAZY = {
    "ScMachine": "machine",
    "TsoMachine": "machine",
    "UnsupportedInstruction": "machine",
    "sc_operational_outcomes": "machine",
    "supports_program": "machine",
    "tso_operational_outcomes": "machine",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
