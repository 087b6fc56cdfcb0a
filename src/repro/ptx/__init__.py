"""The formal PTX 6.0 memory consistency model (paper §3)."""

from .._lazy import attach

_LAZY = {
    "AXIOMS": "spec",
    "Atom": "isa",
    "AtomOp": "isa",
    "Bar": "isa",
    "BarOp": "isa",
    "ConsistencyReport": "model",
    "DERIVED": "spec",
    "Elaboration": "program",
    "Event": "events",
    "Fence": "isa",
    "Instruction": "isa",
    "Kind": "events",
    "Ld": "isa",
    "Membar": "isa",
    "Program": "program",
    "ProgramBuilder": "program",
    "Red": "isa",
    "Sem": "events",
    "St": "isa",
    "ThreadCode": "program",
    "build_env": "model",
    "check_execution": "model",
    "data_races": "model",
    "derived_relation": "model",
    "elaborate": "program",
    "init_write": "events",
    "is_init": "events",
    "is_race_free": "model",
    "moral_strength": "model",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
