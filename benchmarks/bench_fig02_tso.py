"""Figure 2: the TSO baseline model.

The paper introduces the axiomatic vocabulary with TSO (SC-per-Location +
Causality, ppo = po minus store→load).  This bench replays the defining
TSO behaviours — SB allowed, SB+fence forbidden, MP/LB forbidden — and
times the TSO execution search (the registry's ``tso`` model: the
Figure 2 cat text run by the generic zoo engine).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from helpers import assert_all_documented

from repro.core import Scope, device_thread
from repro.ptx import ProgramBuilder, Sem
from repro.registry import resolve_model

T0 = device_thread(0, 0, 0)
T1 = device_thread(0, 1, 0)


def _tso_battery():
    tso = resolve_model("tso").run
    sb = (
        ProgramBuilder("SB")
        .thread(T0).st("x", 1).ld("r1", "y")
        .thread(T1).st("y", 1).ld("r2", "x")
        .build()
    )
    sb_fence = (
        ProgramBuilder("SB+mfence")
        .thread(T0).st("x", 1).fence(Sem.SC, Scope.SYS).ld("r1", "y")
        .thread(T1).st("y", 1).fence(Sem.SC, Scope.SYS).ld("r2", "x")
        .build()
    )
    mp = (
        ProgramBuilder("MP")
        .thread(T0).st("x", 1).st("y", 1)
        .thread(T1).ld("r1", "y").ld("r2", "x")
        .build()
    )
    lb = (
        ProgramBuilder("LB")
        .thread(T0).ld("r1", "y").st("x", 1)
        .thread(T1).ld("r2", "x").st("y", 1)
        .build()
    )

    def both_zero(outs):
        return any(
            o.register(T0, "r1") == 0 and o.register(T1, "r2") == 0
            for o in outs
        )

    def relaxed_mp(outs):
        return any(
            o.register(T1, "r1") == 1 and o.register(T1, "r2") == 0
            for o in outs
        )

    def lb_hit(outs):
        return any(
            o.register(T0, "r1") == 1 and o.register(T1, "r2") == 1
            for o in outs
        )

    return {
        "SB allowed": both_zero(tso(sb)),
        "SB+fence forbidden": not both_zero(tso(sb_fence)),
        "MP forbidden": not relaxed_mp(tso(mp)),
        "LB forbidden": not lb_hit(tso(lb)),
    }


def test_fig02_tso_baseline(benchmark):
    verdicts = benchmark(_tso_battery)
    benchmark.extra_info["verdicts"] = verdicts
    assert all(verdicts.values()), verdicts
