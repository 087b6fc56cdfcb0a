"""The supported public API of the toolkit, in one place.

Everything in ``__all__`` is the surface downstream code may rely on;
anything reached by deep module paths is internal and may move without
notice.  The surface is deliberately small:

* **configure** — :class:`RunConfig` (the sole way to choose model,
  engine, search options, deadlines, caching, certification; the old
  ``run_litmus(test, "tso", **opts)`` keyword surface is gone);
* **execute** — :func:`run_litmus` / :func:`run_suite` for one-shot
  calls, :class:`Session` for sweeps that want a shared worker pool,
  result cache, and counters;
* **inspect** — :class:`LitmusResult`, :class:`Expect`,
  :class:`Certificate` (checked DRAT refutations / witnesses),
  :func:`summarize`;
* **enumerate** — :data:`MODELS` / :data:`ENGINES` and their
  capability flags (:mod:`repro.registry`); unknown names raise
  :class:`UnknownNameError` with the valid choices listed;
* **serve** — the verdict service and its client
  (:class:`ServeConfig` / :func:`serve_forever` /
  :func:`start_in_thread` / :class:`Client`), the HTTP face of the
  same engine stack (``ptxmm serve`` / ``ptxmm client``);
* **fuzz** — the coverage-guided fuzzing farm (:class:`FarmConfig` /
  :func:`run_farm` / :class:`CoverageMap` / :func:`sensitivity_matrix`),
  the library face of ``ptxmm farm``;
* **zoo** — the declarative model zoo (:class:`ZooModel` and its parts,
  :data:`ZOO_MODELS`, :func:`zoo_names`, :func:`containment_claims`),
  the generic axiomatic engine (:func:`zoo_outcomes`,
  :func:`concrete_observations`), and the cross-model conformance
  matrix (:func:`build_matrix` / :class:`ModelMatrix`, the library face
  of ``ptxmm matrix``).

``API_VERSION`` counts redesigns of this surface; it is independent of
the package version and of :data:`~repro.schema.CACHE_SCHEMA_VERSION`
(which tracks the on-disk/wire payload format).

Like the package namespaces, the surface is lazy (:mod:`repro._lazy`):
``import repro.api`` loads no subpackage, and each name imports its
module on first use.
"""

from . import __version__
from ._lazy import attach

#: bumped when this surface changes incompatibly
API_VERSION = 1

# this is a module, not a package: each target's leading dot climbs to
# ``repro`` (``.schema`` is ``repro.schema``)
_LAZY = {
    "CACHE_SCHEMA_VERSION": ".schema",
    "Certificate": ".cert.verdict",
    "Claim": ".zoo",
    "Client": ".serve",
    "CoverageMap": ".fuzz",
    "ENGINES": ".registry",
    "EventSignature": ".zoo",
    "Expect": ".litmus.test",
    "FarmConfig": ".fuzz",
    "FarmReport": ".fuzz",
    "LitmusResult": ".litmus.runner",
    "LitmusTest": ".litmus.test",
    "MODELS": ".registry",
    "ModelMatrix": ".zoo",
    "RunConfig": ".litmus.config",
    "ServeConfig": ".serve",
    "ServiceError": ".serve",
    "ServiceSaturated": ".serve",
    "Session": ".litmus.session",
    "SessionStats": ".litmus.session",
    "UnknownNameError": ".registry",
    "VerdictService": ".serve",
    "WitnessSpec": ".zoo",
    "ZOO_MODELS": ".zoo",
    "ZooModel": ".zoo",
    "build_matrix": ".zoo",
    "concrete_observations": ".zoo",
    "containment_claims": ".zoo",
    "engine_names": ".registry",
    "engines_for_model": ".registry",
    "freeze_opts": ".litmus.config",
    "model_names": ".registry",
    "regression_corpus": ".litmus.corpus",
    "resolve_engine": ".registry",
    "resolve_model": ".registry",
    "run_farm": ".fuzz",
    "run_litmus": ".litmus.runner",
    "run_suite": ".litmus.runner",
    "sensitivity_matrix": ".fuzz",
    "serve_forever": ".serve",
    "start_in_thread": ".serve",
    "summarize": ".litmus.runner",
    "undetected_axioms": ".fuzz",
    "write_corpus": ".fuzz",
    "zoo_names": ".zoo",
    "zoo_outcomes": ".zoo",
}

__all__ = sorted(["API_VERSION", "__version__", *_LAZY])
__getattr__, __dir__ = attach(__name__, _LAZY)
