"""The machine-checked proof layer (alloqc/Coq analog, paper §5.3 & §6.2)."""

from .._lazy import attach

_LAZY = {
    "ProofError": "kernel",
    "TheoremReport": "theorems",
    "Thm": "kernel",
    "all_lemmas": "lemmas",
    "all_theorems": "theorems",
    "check_all": "theorems",
    "kernel": "kernel:",
    "ptx_lemmas": "lemmas",
    "rc11_lemmas": "lemmas",
    "seq_mono": "lemmas",
    "subset_chain": "lemmas",
    "theorem_1_coherence": "theorems",
    "theorem_2_atomicity": "theorems",
    "theorem_3_sc": "theorems",
    "union_member": "lemmas",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
