"""Candidate-execution enumeration (the herd-style litmus engine)."""

from .._lazy import attach

_LAZY = {
    "Candidate": "ptx_search",
    "Outcome": "ptx_search",
    "allowed_outcomes": "ptx_search",
    "candidate_executions": "ptx_search",
    "oriented_orders": "posets",
    "rf_check_outcomes": "rf_check",
    "total_orders": "posets",
    "total_orders_with_first": "posets",
    "valuations": "values",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
