"""repro — a formal analysis toolkit for the NVIDIA PTX memory model.

A from-scratch Python reproduction of *"A Formal Analysis of the NVIDIA PTX
Memory Consistency Model"* (Lustig, Sahasrabuddhe, Giroux — ASPLOS 2019):

* :mod:`repro.ptx` — the axiomatic PTX 6.0 memory model (§3);
* :mod:`repro.rc11` — the scope-extended RC11 "scoped C++" model (§4.1);
* :mod:`repro.mapping` — the Figure 11 compilation mapping, execution
  lifting, and the bounded empirical soundness checker (§4.2, §6.1);
* :mod:`repro.litmus` — litmus tests: DSL, text parser, standard suite,
  multi-model runner;
* :mod:`repro.search` — herd-style exhaustive candidate-execution
  enumeration, including PTX's runtime-partial ``co``/``sc`` orders;
* :mod:`repro.lang` + :mod:`repro.kodkod` + :mod:`repro.sat` — the
  Alloy-analog relational language, a Kodkod-style bounded model finder,
  and a from-scratch CDCL SAT solver underneath it (§5.1–5.2);
* :mod:`repro.proof` — an LCF-style proof kernel plus the §6.2 soundness
  theorems (the alloqc/Coq analog);
* :mod:`repro.zoo` + :mod:`repro.cat` — every axiomatic model declared
  as ``.cat`` text plus an event signature, run by one generic
  enumerator; the TSO (Figure 2) and SC baselines live only there.

Quickstart::

    from repro import ptx_builder, allowed_outcomes, Scope, Sem, device_thread

    t0, t1 = device_thread(0, 0, 0), device_thread(0, 1, 0)
    mp = (ptx_builder("MP")
          .thread(t0).st("x", 1).st("y", 1, sem=Sem.RELEASE, scope=Scope.GPU)
          .thread(t1).ld("r1", "y", sem=Sem.ACQUIRE, scope=Scope.GPU).ld("r2", "x")
          .build())
    for outcome in sorted(allowed_outcomes(mp), key=repr):
        print(outcome)
"""

from ._lazy import attach

__version__ = "1.0.0"

_LAZY = {
    "BUGGY_RMW_SC": "mapping.compiler",
    "DESCOPED": "mapping.compiler",
    "Expect": "litmus.test",
    "LitmusTest": "litmus.test",
    "MemOrder": "rc11.events",
    "STANDARD": "mapping.compiler",
    "SUITE": "litmus.suite",
    "Scope": "core.scopes",
    "Sem": "ptx.events",
    "SystemShape": "core.scopes",
    "ThreadId": "core.scopes",
    "allowed_outcomes": "search.ptx_search",
    "c_allowed_outcomes": "search.rc11_search",
    "candidate_executions": "search.ptx_search",
    "check_mapping": "mapping.checker",
    "check_mapping_axiom": "mapping.checker",
    "compile_program": "mapping.compiler",
    "cpp_builder": "rc11.program:CProgramBuilder",  # scoped C++ programs
    "device_thread": "core.scopes",
    "host_thread": "core.scopes",
    "lift_candidate": "mapping.lifting",
    "make_test": "litmus.test",
    "parse_condition": "litmus.conditions",
    "parse_litmus": "litmus.parser",
    "ptx_builder": "ptx.program:ProgramBuilder",  # PTX litmus programs
    "run_litmus": "litmus.runner",
    "run_suite": "litmus.runner",
    "summarize": "litmus.runner",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
