"""Bounded relational model finding over SAT (the Alloy/Kodkod analog)."""

from .._lazy import attach

_LAZY = {
    "Bounds": "bounds",
    "Instance": "finder",
    "RelBound": "bounds",
    "Translation": "translate",
    "Translator": "translate",
    "Universe": "bounds",
    "check": "finder",
    "instances": "finder",
    "solve": "finder",
    "solve_translation": "finder",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
