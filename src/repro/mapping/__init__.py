"""The scoped C++ → PTX compilation mapping and its verification (§4–§6)."""

from .._lazy import attach

_LAZY = {
    "BUGGY_RMW_SC": "compiler",
    "CheckStats": "checker",
    "CompiledProgram": "compiler",
    "Counterexample": "checker",
    "DESCOPED": "compiler",
    "Lift": "lifting",
    "MappingCheckResult": "checker",
    "MappingScheme": "compiler",
    "STANDARD": "compiler",
    "check_mapping": "checker",
    "check_mapping_axiom": "checker",
    "check_program_against_axiom": "checker",
    "compile_op": "compiler",
    "compile_program": "compiler",
    "compositions": "skeletons",
    "count_skeletons": "skeletons",
    "cta_assignments": "skeletons",
    "event_map": "compiler",
    "lift_candidate": "lifting",
    "source_skeletons": "skeletons",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
