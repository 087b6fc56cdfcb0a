"""Differential conformance fuzzing of the litmus decision engines.

The repository carries four independent deciders for the same question —
the explicit enumeration search, the symbolic kodkod+SAT engine, the
operational SC/TSO machines, and DRAT-certified verdicts.  This package
cross-checks them against each other over *generated* programs, the way
weak-memory tooling is validated in practice:

* :mod:`.gen` — seed-reproducible program generation: critical cycles
  from :mod:`repro.litmus.generator` with randomized annotation, scope,
  placement, value, and fence perturbations;
* :mod:`.oracle` — the cross-engine oracle: each generated test runs
  through several engine configurations and the *full outcome sets* are
  compared (two engines can agree on a verdict while disagreeing on the
  outcomes);
* :mod:`.shrink` — a greedy discrepancy minimizer: drop threads and
  instructions, weaken conditions and annotations, canonicalize values,
  keeping every step that still reproduces the discrepancy;
* :mod:`.harness` — the ``ptxmm fuzz`` engine: budgets (count or
  wall-clock), parallel execution through the session machinery, and
  artifact emission (shrunk repro as parseable litmus text plus a JSON
  report) on every distinct discrepancy (deduped by canonical-form
  hash);
* :mod:`.coverage` — the structural coverage signal (feature
  extraction, the mergeable :class:`~repro.fuzz.coverage.CoverageMap`,
  greedy corpus distillation);
* :mod:`.farm` — the ``ptxmm farm`` engine: coverage-steered rounds,
  checkpoint/resume, artifact dedup, corpus emission;
* :mod:`.sensitivity` — the axiom-ablation sensitivity matrix (the
  empirical mirror of the paper's Figure 17) over corpus shapes.
"""

from .._lazy import attach

_LAZY = {
    "DEFAULT_VOCABULARY": "gen",
    "FuzzCase": "gen",
    "GenBias": "gen",
    "cycle_pool": "gen",
    "generate_case": "gen",
    "FuzzBudget": "harness",
    "FuzzReport": "harness",
    "FuzzStats": "harness",
    "canonical_test_hash": "harness",
    "recheck_artifact": "harness",
    "run_fuzz": "harness",
    "CoverageMap": "coverage",
    "bias_from_coverage": "coverage",
    "case_features": "coverage",
    "distill": "coverage",
    "feature_hash": "coverage",
    "result_features": "coverage",
    "FarmConfig": "farm",
    "FarmReport": "farm",
    "load_checkpoint": "farm",
    "run_farm": "farm",
    "save_checkpoint": "farm",
    "write_corpus": "farm",
    "axiom_probes": "sensitivity",
    "render_sensitivity": "sensitivity",
    "sensitivity_matrix": "sensitivity",
    "undetected_axioms": "sensitivity",
    "Check": "oracle",
    "CaseVerdict": "oracle",
    "Discrepancy": "oracle",
    "EngineSpec": "oracle",
    "Oracle": "oracle",
    "check_test": "oracle",
    "default_checks": "oracle",
    "EngineCrash": "shrink",
    "ShrinkResult": "shrink",
    "shrink": "shrink",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
