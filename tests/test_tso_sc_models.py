"""Tests for the TSO (Figure 2) and SC baseline models.

Both models are cat text run by the generic zoo engine; these tests go
through the registry (``resolve_model(m).run``) exactly as every caller
does.  The Figure 2 ppo/fence tables are the zoo's ``ppo_tso`` and
``fence_tso`` builders.
"""

from repro.core import Scope, device_thread
from repro.core.execution import program_order
from repro.ptx import AtomOp, ProgramBuilder, Sem
from repro.ptx.program import elaborate
from repro.registry import resolve_model
from repro.zoo import BUILDERS
from repro.zoo.engine import _BuildContext

T0 = device_thread(0, 0, 0)
T1 = device_thread(0, 1, 0)


def outcomes(model, prog):
    return resolve_model(model).run(prog)


def sb(with_fence=False):
    builder = ProgramBuilder("SB").thread(T0).st("x", 1)
    if with_fence:
        builder.fence(Sem.SC, Scope.SYS)
    builder.ld("r1", "y").thread(T1).st("y", 1)
    if with_fence:
        builder.fence(Sem.SC, Scope.SYS)
    builder.ld("r2", "x")
    return builder.build()


def observed_00(prog, model):
    return any(
        o.register(T0, "r1") == 0 and o.register(T1, "r2") == 0
        for o in outcomes(model, prog)
    )


def build(builder, prog):
    """One zoo base relation over ``prog``'s program events."""
    elab = elaborate(prog)
    po = program_order(elab.by_thread)
    return BUILDERS[builder].fn(_BuildContext(elab.events, (), elab, po)), po


class TestTso:
    def test_sb_allowed_without_fence(self):
        """The defining TSO relaxation: store buffering."""
        assert observed_00(sb(False), "tso")

    def test_sb_forbidden_with_fence(self):
        assert not observed_00(sb(True), "tso")

    def test_mp_forbidden(self):
        prog = (
            ProgramBuilder("MP")
            .thread(T0).st("x", 1).st("y", 1)
            .thread(T1).ld("r1", "y").ld("r2", "x")
            .build()
        )
        assert not any(
            o.register(T1, "r1") == 1 and o.register(T1, "r2") == 0
            for o in outcomes("tso", prog)
        )

    def test_lb_forbidden(self):
        prog = (
            ProgramBuilder("LB")
            .thread(T0).ld("r1", "y").st("x", 1)
            .thread(T1).ld("r2", "x").st("y", 1)
            .build()
        )
        assert not any(
            o.register(T0, "r1") == 1 and o.register(T1, "r2") == 1
            for o in outcomes("tso", prog)
        )

    def test_store_forwarding_allowed(self):
        """A thread may read its own buffered store early."""
        prog = (
            ProgramBuilder("SB+fwd")
            .thread(T0).st("x", 1).ld("r0", "x").ld("r1", "y")
            .thread(T1).st("y", 1).ld("r2", "x")
            .build()
        )
        assert any(
            o.register(T0, "r0") == 1
            and o.register(T0, "r1") == 0
            and o.register(T1, "r2") == 0
            for o in outcomes("tso", prog)
        )

    def test_ppo_excludes_store_to_load_only(self):
        prog = (
            ProgramBuilder("mixed")
            .thread(T0).st("x", 1).ld("r0", "x").ld("r1", "y").st("y", 2)
            .build()
        )
        ppo, po = build("ppo_tso", prog)
        assert ppo
        for a, b in po:
            if a.is_memory and b.is_memory:
                expected = not (a.is_write and b.is_read)
                assert ((a, b) in ppo) == expected

    def test_fence_orders_pairs_across_a_fence(self):
        fence, po = build("fence_tso", sb(True))
        memory_pairs = [(a, b) for a, b in po if a.is_memory and b.is_memory]
        assert memory_pairs
        assert all(pair in fence for pair in memory_pairs)
        unfenced, _ = build("fence_tso", sb(False))
        assert not unfenced

    def test_atomics_act_as_fences(self):
        prog = (
            ProgramBuilder("SB+atom")
            .thread(T0).atom("r0", "x", AtomOp.EXCH, 1, scope=Scope.GPU).ld("r1", "y")
            .thread(T1).atom("r2", "y", AtomOp.EXCH, 1, scope=Scope.GPU).ld("r3", "x")
            .build()
        )
        fence, po = build("fence_tso", prog)
        assert all(
            (a, b) in fence for a, b in po if a.is_memory and b.is_memory
        )
        assert not any(
            o.register(T0, "r1") == 0 and o.register(T1, "r3") == 0
            for o in outcomes("tso", prog)
        )


class TestSc:
    def test_sb_forbidden(self):
        assert not observed_00(sb(False), "sc")

    def test_interleavings_allowed(self):
        prog = (
            ProgramBuilder("p")
            .thread(T0).st("x", 1)
            .thread(T1).ld("r1", "x")
            .build()
        )
        values = {o.register(T1, "r1") for o in outcomes("sc", prog)}
        assert values == {0, 1}

    def test_coherence_respected(self):
        prog = ProgramBuilder("p").thread(T0).st("x", 1).st("x", 2).build()
        for outcome in outcomes("sc", prog):
            assert outcome.memory_values("x") == {2}

    def test_sc_stricter_than_tso(self):
        """Everything SC allows, TSO allows (on plain loads/stores)."""
        prog = sb(False)
        assert outcomes("sc", prog) <= outcomes("tso", prog)
