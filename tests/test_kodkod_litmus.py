"""The SAT-backed litmus backend must agree with the explicit enumerator."""

import pytest

from repro.kodkod.litmus import (
    UnsupportedCondition,
    symbolic_consistent_instances,
    symbolic_outcome_allowed,
)
from repro.litmus import SUITE, run_litmus


def _supported(test):
    if test.search_opts:
        return False  # thin-air tests need value speculation
    try:
        symbolic_outcome_allowed(test)
    except UnsupportedCondition:
        return False
    return True


_SUPPORTED = [t for t in SUITE if _supported(t)]


@pytest.mark.parametrize("test", _SUPPORTED, ids=[t.name for t in _SUPPORTED])
def test_symbolic_agrees_with_enumeration(test):
    symbolic = symbolic_outcome_allowed(test)
    concrete = run_litmus(test, model="ptx").observed
    assert symbolic == concrete


def test_most_of_the_suite_is_supported():
    """Only RMW-valued and speculative tests should fall back."""
    unsupported = [t.name for t in SUITE if t not in _SUPPORTED]
    for name in unsupported:
        assert (
            "Atom" in name or "CAS" in name or "Red" in name or "LB+deps" in name
        ), f"{name} should be symbolically checkable"
    assert len(_SUPPORTED) >= len(SUITE) - 8


def test_unsupported_raises_cleanly():
    from repro.litmus import BY_NAME

    atom_test = BY_NAME["2xAtomAdd.gpu"]
    with pytest.raises(UnsupportedCondition):
        symbolic_outcome_allowed(atom_test)


def test_symbolic_stats_populated():
    from repro.litmus import BY_NAME
    from repro.sat import SolverStats

    stats = []
    symbolic_outcome_allowed(BY_NAME["MP+rel_acq.gpu"], stats=stats)
    assert len(stats) == 1 and isinstance(stats[0], SolverStats)
    assert stats[0].propagations > 0


def _witness_set(found):
    return {
        frozenset(
            (name, frozenset(inst[name].tuples)) for name in ("rf", "co", "sc")
        )
        for inst in found
    }


def test_instance_enumeration_incremental_matches_rebuild():
    """§5.2 all-instances methodology: enumerating the axiom-consistent
    witnesses of a Figure-17-style query with learned-clause reuse must find
    exactly the same instance set as the rebuild-per-instance baseline."""
    from repro.litmus import BY_NAME

    test = BY_NAME["IRIW+rel_acq"]
    incremental = _witness_set(symbolic_consistent_instances(test))
    rebuilt = _witness_set(
        symbolic_consistent_instances(test, incremental=False)
    )
    assert incremental == rebuilt
    assert len(incremental) == 16


def test_instance_enumeration_repeatable():
    """A second enumeration of the same test yields the identical set —
    blocking clauses never contaminate the shared translation."""
    from repro.litmus import BY_NAME

    test = BY_NAME["MP+rel_acq.gpu"]
    first = _witness_set(symbolic_consistent_instances(test))
    second = _witness_set(symbolic_consistent_instances(test))
    assert first == second and first


def test_instance_enumeration_stats_show_reuse():
    """Per-solve snapshots must be recorded for every instance (plus the
    final UNSAT call), proving the incremental solver is observable."""
    from repro.litmus import BY_NAME

    stats = []
    count = sum(
        1
        for _ in symbolic_consistent_instances(
            BY_NAME["IRIW+rel_acq"], stats=stats
        )
    )
    assert count == 16
    assert len(stats) == count  # one snapshot per yielded instance
    assert all(snap.solves == 1 for snap in stats)


# fence.sc.cta in different CTAs: the two fences are not morally strong,
# so no sc edge may order them and the writes to y stay unordered.  The
# bounds still admit an sc edge between them, which once forced co 2->1
# and gave a spurious [y]={1} outcome under symbolic-enum.
_CROSS_CTA_FENCES = """\
ptx test FenceSC.cta+cross-cta-WW
thread d0c0t0
  fence.sc.cta
  st.weak [y], 1
thread d0c1t0
  st.weak [y], 2
  fence.sc.cta
allowed: [y]=1
"""

# a gpu-scoped fence in between relates both cta fences, so the enumerative
# sc order reaches the cross-CTA pair transitively and [y]={1} is real
_TRANSITIVE_FENCES = """\
ptx test FenceSC.cta+gpu+cross-cta-WW
thread d0c0t0
  fence.sc.cta
  st.weak [y], 1
thread d0c0t1
  fence.sc.gpu
thread d0c1t0
  st.weak [y], 2
  fence.sc.gpu
allowed: [y]=1
"""


@pytest.mark.parametrize(
    "text", [_CROSS_CTA_FENCES, _TRANSITIVE_FENCES], ids=["cross-cta", "transitive"]
)
def test_symbolic_enum_decodes_sc_over_morally_strong_fences(text):
    from repro.fuzz import Oracle, default_checks
    from repro.litmus import RunConfig
    from repro.litmus.parser import parse_litmus

    test = parse_litmus(text)
    symbolic = run_litmus(test, config=RunConfig(engine="symbolic-enum")).outcomes
    for engine, kernel in [
        ("enumerative", "set"),
        ("enumerative", "bit"),
        ("enumerative", "compiled"),
        ("rf-check", "bit"),
    ]:
        reference = run_litmus(test, config=RunConfig(engine=engine, kernel=kernel))
        assert reference.outcomes == symbolic, (engine, kernel)
    checks = [c for c in default_checks() if c.kind == "ptx-outcomes"]
    verdict = Oracle(checks).evaluate_one(test)
    assert verdict.agreed == ("ptx-outcomes",)
    assert verdict.clean
