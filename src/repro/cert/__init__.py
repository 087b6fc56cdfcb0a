"""Verdict certificates: proof logging plus an independent checker.

The paper's trust story (§5.3) is that empirical model-finding results are
only believable once machine-checked.  This package closes the per-verdict
gap: the CDCL backend logs a DRAT-style proof trace while it solves
(:mod:`repro.cert.drat`), a small independent checker re-validates the
trace by unit propagation alone (:mod:`repro.cert.checker`), and
:mod:`repro.cert.verdict` packages the outcome as a
:class:`~repro.cert.verdict.Certificate` attached to every litmus result:

* a FORBIDDEN verdict ships an UNSAT trace accepted by the RUP checker;
* an ALLOWED verdict ships a witness assignment re-evaluated against the
  original CNF and the kodkod translation bounds.

The checker shares no code with the solver's search loop — no watches, no
VSIDS, no conflict analysis — so a bug in the 600-line solver cannot
silently certify itself.
"""

from .._lazy import attach

_LAZY = {
    "Certificate": "verdict",
    "CheckFailure": "checker",
    "DratLogger": "drat",
    "certify_enumeration": "verdict",
    "certify_symbolic": "verdict",
    "check_unsat_proof": "checker",
    "check_witness": "checker",
    "read_drat": "drat",
    "skipped_certificate": "verdict",
    "write_drat": "drat",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
