"""The scope-extended RC11 ("scoped C++") memory model (paper §4.1)."""

from .._lazy import attach

_LAZY = {
    "AXIOMS": "spec",
    "AXIOMS_WITH_THIN_AIR": "spec",
    "CElaboration": "program",
    "CEvent": "events",
    "CFence": "program",
    "CKind": "events",
    "CLoad": "program",
    "COp": "program",
    "CProgram": "program",
    "CProgramBuilder": "program",
    "CRmw": "program",
    "CStore": "program",
    "CThread": "program",
    "DERIVED": "spec",
    "MemOrder": "events",
    "Rc11Report": "model",
    "build_env": "model",
    "c_elaborate": "program",
    "c_init_write": "events",
    "c_is_init": "events",
    "check_execution": "model",
    "data_races": "model",
    "inclusion": "model",
    "is_race_free": "model",
    "read_node": "program",
    "write_node": "program",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
