"""Finite relational algebra: the substrate under every axiomatic model."""

from .._lazy import attach

_LAZY = {
    "BitRel": "bitrel",
    "BitSet": "bitrel",
    "IncrementalClosure": "incremental",
    "Relation": "relation",
    "Universe": "bitrel",
    "acyclic": "relation",
    "iden_over": "relation",
    "irreflexive": "relation",
    "least_fixpoint": "fixpoint",
    "recursive_union": "fixpoint",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
