"""The sequential-consistency baseline model."""

from .._lazy import attach

_LAZY = {
    "AXIOMS": "spec",
    "DERIVED": "spec",
    "ScReport": "model",
    "build_env": "model",
    "check_execution": "model",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
