"""Axiomatic ↔ operational agreement for the baseline models.

The paper (§2.2) notes that axiomatic and operational presentations of a
model should ideally be proven equivalent (as was done for x86-TSO [44]).
We check the property empirically: for every litmus-sized program, the set
of outcomes of the SC interleaving machine equals the axiomatic SC search,
and likewise for the TSO store-buffer machine vs the Figure 2 axioms.  The
axiomatic side is the registry's model (the cat text run by the zoo
engine), checked under every relation kernel.
"""

import pytest

pytestmark = pytest.mark.slow

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scope, device_thread
from repro.operational import (
    UnsupportedInstruction,
    sc_operational_outcomes,
    tso_operational_outcomes,
)
from repro.ptx import AtomOp, ProgramBuilder, Sem
from repro.ptx.isa import Bar, Fence, Ld, St
from repro.ptx.program import Program, ThreadCode
from repro.registry import kernel_names, resolve_model

T0 = device_thread(0, 0, 0)
T1 = device_thread(0, 1, 0)


def assert_axiomatic_agrees(model, program, operational):
    """The axiomatic ``model`` reproduces ``operational`` under every
    relation kernel."""
    for kernel in kernel_names():
        axiomatic = resolve_model(model).run(program, kernel=kernel)
        assert axiomatic == operational, kernel


def named_programs():
    yield (
        ProgramBuilder("SB")
        .thread(T0).st("x", 1).ld("r1", "y")
        .thread(T1).st("y", 1).ld("r2", "x")
        .build()
    )
    yield (
        ProgramBuilder("SB+fence")
        .thread(T0).st("x", 1).fence(Sem.SC, Scope.SYS).ld("r1", "y")
        .thread(T1).st("y", 1).fence(Sem.SC, Scope.SYS).ld("r2", "x")
        .build()
    )
    yield (
        ProgramBuilder("MP")
        .thread(T0).st("x", 1).st("y", 1)
        .thread(T1).ld("r1", "y").ld("r2", "x")
        .build()
    )
    yield (
        ProgramBuilder("LB")
        .thread(T0).ld("r1", "y").st("x", 1)
        .thread(T1).ld("r2", "x").st("y", 1)
        .build()
    )
    yield (
        ProgramBuilder("SB+fwd")
        .thread(T0).st("x", 1).ld("r0", "x").ld("r1", "y")
        .thread(T1).st("y", 1).ld("r2", "x")
        .build()
    )
    yield (
        ProgramBuilder("CoWW")
        .thread(T0).st("x", 1).st("x", 2)
        .build()
    )
    yield (
        ProgramBuilder("2xAtomAdd")
        .thread(T0).atom("r1", "x", AtomOp.ADD, 1, scope=Scope.GPU)
        .thread(T1).atom("r2", "x", AtomOp.ADD, 1, scope=Scope.GPU)
        .build()
    )
    yield (
        ProgramBuilder("atom+SB")
        .thread(T0).atom("r0", "x", AtomOp.EXCH, 1, scope=Scope.GPU).ld("r1", "y")
        .thread(T1).st("y", 1).ld("r2", "x")
        .build()
    )


NAMED = list(named_programs())


@pytest.mark.parametrize("program", NAMED, ids=[p.name for p in NAMED])
def test_sc_machine_agrees_with_axiomatic_sc(program):
    assert_axiomatic_agrees("sc", program, sc_operational_outcomes(program))


@pytest.mark.parametrize("program", NAMED, ids=[p.name for p in NAMED])
def test_tso_machine_agrees_with_axiomatic_tso(program):
    assert_axiomatic_agrees("tso", program, tso_operational_outcomes(program))


class TestMachineBasics:
    def test_store_buffering_observable(self):
        outcomes = tso_operational_outcomes(NAMED[0])
        assert any(
            o.register(T0, "r1") == 0 and o.register(T1, "r2") == 0
            for o in outcomes
        )

    def test_sc_machine_forbids_sb(self):
        outcomes = sc_operational_outcomes(NAMED[0])
        assert not any(
            o.register(T0, "r1") == 0 and o.register(T1, "r2") == 0
            for o in outcomes
        )

    def test_forwarding_from_own_buffer(self):
        program = (
            ProgramBuilder("fwd")
            .thread(T0).st("x", 7).ld("r1", "x")
            .build()
        )
        outcomes = tso_operational_outcomes(program)
        assert all(o.register(T0, "r1") == 7 for o in outcomes)

    def test_buffers_drained_at_exit(self):
        program = ProgramBuilder("drain").thread(T0).st("x", 3).build()
        outcomes = tso_operational_outcomes(program)
        assert all(o.memory_values("x") == {3} for o in outcomes)

    def test_barrier_rejected(self):
        program = ProgramBuilder("bar").thread(T0).bar().build()
        with pytest.raises(UnsupportedInstruction):
            tso_operational_outcomes(program)


@st.composite
def random_programs(draw):
    """Random 2-thread ld/st/fence programs over two locations."""
    def instructions(reg_prefix):
        count = draw(st.integers(1, 3))
        out = []
        for i in range(count):
            loc = draw(st.sampled_from(["x", "y"]))
            choice = draw(st.integers(0, 2))
            if choice == 0:
                out.append(Ld(dst=f"{reg_prefix}{i}", loc=loc))
            elif choice == 1:
                out.append(St(loc=loc, src=draw(st.integers(1, 3))))
            else:
                out.append(Fence(sem=Sem.SC, scope=Scope.SYS))
        return tuple(out)

    return Program(
        name="random",
        threads=(
            ThreadCode(tid=T0, instructions=instructions("a")),
            ThreadCode(tid=T1, instructions=instructions("b")),
        ),
    )


@given(random_programs())
@settings(max_examples=30, deadline=None)
def test_random_agreement_sc(program):
    assert_axiomatic_agrees("sc", program, sc_operational_outcomes(program))


@given(random_programs())
@settings(max_examples=30, deadline=None)
def test_random_agreement_tso(program):
    assert_axiomatic_agrees("tso", program, tso_operational_outcomes(program))
