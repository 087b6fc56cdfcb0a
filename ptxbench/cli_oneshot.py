"""cli-oneshot: a closed loop of fresh ``ptxmm run FILE --outcomes`` launches.

One launch at a time.  FILE is drawn from the 41-test suite and the
configuration cycles through CLI_CONFIGS in seeded order, so every
stretch of the loop holds each configuration equally often.  Interpreter
start, ``import repro.cli`` and cold per-process work dominate here.
"""

from __future__ import annotations

import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from common import (
    CONFIGS, HERE, BenchError, Calibrator, RunDir, check_answer, load_json,
    outcome_from_repr, pct, pinned_env, precompile,
)
from layers import merge_traces, overhead, span_metrics, startup_metrics, startup_runs

CLI_CONFIGS = ("bit", "compiled", "rf-check", "symbolic", "tso")
SETUP_REPEATS = 3
#: a launch that takes longer than this is killed and counted failed
LAUNCH_TIMEOUT_S = 60.0

_VERDICT_RE = re.compile(r"^verdict\s*:\s*(\S+)", re.M)


def _plan(seed: int, idents: List[str]):
    rng = random.Random(seed)
    while True:
        order = list(CLI_CONFIGS)
        rng.shuffle(order)
        for config in order:
            yield rng.choice(idents), config


def _setup(root: Path, run: RunDir, index: int, deck: Dict[str, str], idents: List[str]):
    """Fresh bytecode prefix plus litmus fixtures; returns (env, files)."""
    pycache = run.sub(f"pycache{index}")
    files = {}
    fixtures = run.sub(f"litmus{index}")
    for number, ident in enumerate(idents):
        path = fixtures / f"{number:02d}.litmus"
        path.write_text(deck[ident])
        files[ident] = path
    env = pinned_env(root, pycache, run.sub("ptxmm-cache"))
    precompile(root, env, [str(HERE / "warm_cli.py"), str(files[idents[0]])])
    return env, files


def _launch(argv: List[str], env: Dict[str, str], cwd: Path):
    """Run one process to exit; returns (start, end, rc, stdout, maxrss_kb)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, out.decode(errors="replace"), usage.ru_maxrss


def _check(golden: Dict, key: str, rc: int, out: str) -> bool:
    if rc != 0:
        return False
    match = _VERDICT_RE.search(out)
    if match is None:
        return False
    outcomes = [
        outcome_from_repr(line) for line in out.splitlines()
        if line.startswith("  <Outcome ")
    ]
    return check_answer(golden, key, match.group(1), outcomes)


def _loop(root, env, files, plan, seconds, golden, trace_dir=None):
    ops = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        ident, config = next(plan)
        flags = [p for f, v in CONFIGS[config].items() for p in (f"--{f}", v)]
        args = ["run", str(files[ident]), "--outcomes", *flags]
        launch_env = env
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), *args]
            launch_env = dict(env, PTXBENCH_TRACE_OUT=str(trace_dir / f"op{len(ops)}.json"))
        start, end, rc, out, maxrss = _launch(argv, launch_env, root)
        ops.append({
            "key": f"{ident}|{config}",
            "start": start,
            "raw_ms": (end - start) * 1000.0,
            "rss_mb": maxrss / 1024.0,
            "ok": _check(golden, f"{ident}|{config}", rc, out),
        })
    return ops


def _summary(ops) -> Dict[str, float]:
    latencies = [op["norm_ms"] for op in ops]
    return {
        "op_p50": pct(latencies, 50),
        "op_p90": pct(latencies, 90),
        "ops_per_s": len(ops) / (sum(latencies) / 1000.0),
    }


def run(root: Path, seed: int, seconds: float, trace: bool):
    deck, golden = load_json("deck.json"), load_json("golden.json")
    idents = [ident for ident in deck if ident.startswith("suite/")]
    if len(idents) != 41:
        raise BenchError(f"deck holds {len(idents)} suite tests, expected 41")
    run_dir = RunDir(root, "cli-oneshot")
    cal = Calibrator()
    try:
        setups = []
        for index in range(SETUP_REPEATS):
            start = time.perf_counter()
            env, files = _setup(root, run_dir, index, deck, idents)
            setups.append((start, time.perf_counter() - start))
        untraced = _loop(root, env, files, _plan(seed, idents), seconds / 2 if trace else seconds, golden)
        if trace:
            trace_dir = run_dir.sub("trace")
            ops = _loop(root, env, files, _plan(seed, idents), seconds / 2, golden, trace_dir)
            startup = startup_runs(root, env)
        cal.stop()
        cal.normalize(untraced + (ops if trace else []))
        record = {"setup_raw": setups, "untraced_ops": untraced, "calibration": cal.raw()}
        if not trace:
            summary = _summary(untraced)
            metrics = {
                "setup_s": statistics.median(cal.scale(*setup) for setup in setups),
                "op_p50_ms": summary["op_p50"],
                "op_p90_ms": summary["op_p90"],
                "ops_per_s": summary["ops_per_s"],
                "peak_rss_mb": statistics.median(op["rss_mb"] for op in untraced),
            }
        else:
            factor = sum(op["norm_ms"] for op in ops) / sum(op["raw_ms"] for op in ops)
            spans = merge_traces(sorted(trace_dir.glob("op*.json")))
            metrics = startup_metrics(startup, cal)
            metrics.update(span_metrics(spans, len(ops), factor * 1000.0))
            metrics.update(overhead(_summary(ops), _summary(untraced)))
            covered = metrics["interp.startup_ms"] + (
                spans["spans"].get("import.repro", [0, 0.0])[1]
                + spans["spans"].get("cli.main", [0, 0.0])[1]
            ) * factor * 1000.0 / len(ops)
            metrics["trace.coverage"] = covered / statistics.fmean(op["norm_ms"] for op in ops)
            record["traced_ops"] = ops
        metrics["host.cal_ms"] = cal.typical_ms()
        everything = untraced + (ops if trace else [])
        record["failures"] = [f"cli-oneshot op {op['key']}" for op in everything if not op["ok"]]
        return len(everything), len(record["failures"]), metrics, record
    finally:
        cal.close()
        run_dir.close()
