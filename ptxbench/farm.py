"""farm: the coverage-guided fuzzing farm, in one child process.

``run_farm`` with its CLI defaults (full differential battery, ``bit``
kernel, steering on, rounds of 64) and a count budget fixed by
``--seconds``, driven through ``repro.api`` by ``farm_child.py``.  Kodkod
translation, SAT and the model zoo carry the load here, not the native
PTX search.  An op is one generated case; its latency is its round's
wall time per case.  A check that disagrees with the reference, or that
could not decide, counts as a failed op.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import HERE, BenchError, Calibrator, RunDir, pct, pinned_env, precompile
from layers import merge_traces, overhead, span_metrics, startup_metrics, startup_runs

SETUP_REPEATS = 3
ROUND_SIZE = 64
#: reference-host farm throughput used to size the count budget
REF_CASES_PER_S = 28.0


class FarmChild:
    def __init__(self, root: Path, env: Dict[str, str], seed: int, count: int, trace_out=None):
        argv = [sys.executable, str(HERE / "farm_child.py"), "--seed", str(seed), "--count", str(count)]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            argv, env=env, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )

    def line(self) -> str:
        text = self.proc.stdout.readline()
        if not text:
            raise BenchError(f"farm child exited early (code {self.proc.wait()})")
        return text.strip()

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _count(seconds: float) -> int:
    return max(ROUND_SIZE, round(seconds * REF_CASES_PER_S / ROUND_SIZE) * ROUND_SIZE)


def _boot(root, env, seed, count, trace_out=None):
    """Spawn a child and wait until it is ready; returns (child, (start, s))."""
    start = time.perf_counter()
    child = FarmChild(root, env, seed, count, trace_out)
    ready = child.line()
    setup = (start, time.perf_counter() - start)
    if not ready.startswith("ready "):
        child.close()
        raise BenchError(f"farm child said {ready!r}")
    return child, setup


def _phase(root, env, seed, seconds, trace_out=None):
    """One measured farm; returns (rounds, summary, child set-up)."""
    child, setup = _boot(root, env, seed, _count(seconds), trace_out)
    try:
        rounds = []
        child.send("go")
        while True:
            line = child.line()
            if line.startswith("done "):
                summary = json.loads(line[len("done "):])
                break
            _, cases, start, elapsed = line.split()
            rounds.append({"cases": int(cases), "start": float(start), "raw_ms": float(elapsed) * 1000.0})
        if child.proc.wait(timeout=60) != 0:
            raise BenchError("farm child failed")
    finally:
        child.close()
    if summary["generated"] != sum(r["cases"] for r in rounds):
        raise BenchError("farm generated a different case count than it reported")
    return rounds, summary, setup


def _summary(rounds) -> Dict[str, float]:
    # the first round also evaluates the seed corpus
    per_case = [r["norm_ms"] / r["cases"] for r in rounds[1:] or rounds]
    return {
        "op_p50": pct(per_case, 50),
        "op_p90": pct(per_case, 90),
        "ops_per_s": sum(r["cases"] for r in rounds) / (sum(r["norm_ms"] for r in rounds) / 1000.0),
    }


def _failed(summary) -> int:
    return summary["discrepancies"] + summary["undecided"]


def _failures(seed: int, summary) -> List[str]:
    """One line per failed check: the case that replays it and what differed."""
    lines = [
        f"farm case seed={seed} index={found['index']}: {found['kind']} "
        f"{found['engines'][0]} vs {found['engines'][1]}: {found['detail']}"
        for found in summary["found"]
    ]
    if summary["undecided"]:
        lines.append(f"farm seed={seed}: {summary['undecided']} checks undecided")
    return lines


def run(root: Path, seed: int, seconds: float, trace: bool):
    run_dir = RunDir(root, "farm")
    cal = Calibrator()
    try:
        env = pinned_env(root, run_dir.sub("pycache"), run_dir.sub("ptxmm-cache"))
        precompile(root, env, [str(HERE / "farm_child.py"), "--seed", "0", "--count", "8"])
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            child, setup = _boot(root, env, seed, 1)
            child.send("quit")
            child.close()
            setups.append(setup)
        untraced, summary, setup = _phase(root, env, seed, seconds / 2 if trace else seconds)
        setups.append(setup)
        if trace:
            trace_out = run_dir.path / "trace.json"
            rounds, traced_summary, _ = _phase(root, env, seed, seconds / 2, trace_out)
            startup = startup_runs(root, env)
        cal.stop()
        cal.normalize(untraced + (rounds if trace else []))
        stats = _summary(untraced)
        record = {"setup_raw": setups, "untraced_rounds": untraced, "summary": summary, "calibration": cal.raw()}
        attempted, failed = summary["generated"], _failed(summary)
        record["failures"] = _failures(seed, summary)
        if not trace:
            metrics = {
                "setup_s": statistics.median(cal.scale(*setup) for setup in setups),
                "op_p50_ms": stats["op_p50"],
                "op_p90_ms": stats["op_p90"],
                "ops_per_s": stats["ops_per_s"],
                "peak_rss_mb": summary["maxrss_kb"] / 1024.0,
            }
        else:
            cases = traced_summary["generated"]
            factor = sum(r["norm_ms"] for r in rounds) / sum(r["raw_ms"] for r in rounds)
            spans = merge_traces([trace_out])
            metrics = startup_metrics(startup, cal)
            metrics.update(span_metrics(spans, cases, factor * 1000.0))
            metrics.update(overhead(_summary(rounds), stats))
            farm_s = spans["spans"].get("fuzz.farm", [0, 0.0])[1]
            metrics["trace.coverage"] = farm_s * 1000.0 / sum(r["raw_ms"] for r in rounds)
            record.update(traced_rounds=rounds, traced_summary=traced_summary)
            attempted += cases
            failed += _failed(traced_summary)
            record["failures"] += _failures(seed, traced_summary)
        metrics["host.cal_ms"] = cal.typical_ms()
        return attempted, failed, metrics, record
    finally:
        cal.close()
        run_dir.close()
