"""repro.zoo — the model zoo: memory models as data, compared N×N.

The zoo turns model registration into declaration: a
:class:`~repro.zoo.model.ZooModel` names a ``.cat`` axiom file, an event
signature (set predicates + base-relation builders from the shared
registries), a witness spec, and optional containment claims.  The
generic engine (:func:`zoo_outcomes`) enumerates any declared model; the
conformance matrix (:func:`~repro.zoo.matrix.build_matrix`) compares all
of them pairwise with witness litmus tests; the fuzz oracle derives a
cross-model check from every declared claim.

Like every package namespace here it is lazy (:mod:`repro._lazy`): the
declarations, the engine and the matrix load on first attribute access,
so ``import repro.registry`` does not pay for the search machinery.
"""

from .._lazy import attach

_LAZY = {
    "Claim": "model",
    "EventSignature": "model",
    "WitnessSpec": "model",
    "ZOO": "models",
    "ZOO_MODELS": "models",
    "ZooModel": "model",
    "containment_claims": "models",
    "resolve_zoo": "models",
    "zoo_names": "models",
    "BUILDERS": "engine",
    "MatrixCell": "matrix",
    "ModelMatrix": "matrix",
    "PREDICATES": "engine",
    "build_matrix": "matrix",
    "concrete_observations": "engine",
    "matrix_corpus": "matrix",
    "zoo_candidates": "engine",
    "zoo_outcomes": "engine",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
