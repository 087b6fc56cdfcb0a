"""Shared substrate: scope trees, executions, and common vocabulary."""

from .._lazy import attach

_LAZY = {
    "Execution": "execution",
    "Scope": "scopes",
    "ScopeInstance": "scopes",
    "SystemShape": "scopes",
    "ThreadId": "scopes",
    "device_thread": "scopes",
    "distinct_cta_threads": "scopes",
    "host_thread": "scopes",
    "mutually_inclusive": "scopes",
    "program_order": "execution",
    "same_cta_threads": "scopes",
    "same_location": "execution",
    "scope_includes": "scopes",
    "scope_instance": "scopes",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
