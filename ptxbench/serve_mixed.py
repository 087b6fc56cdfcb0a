"""serve-mixed: one ``ptxmm serve`` daemon, one keep-alive client connection.

The daemon starts fresh each run with a run-local ``--cache-dir``.  The
client sends a closed-loop mix: every (deck program, config) pair in
SERVE_CONFIGS once (a miss, computed and written to the store) and, in
seeded positions among them, repeats of requests already answered (hits,
served from the memory store).  The hit count is fixed by ``--seconds``
so the composition of a run never depends on host speed.

Misses and hits are reported apart: ``op_p50_ms``/``op_p90_ms`` are the
miss round trips; hits take most of the run's time, so ``ops_per_s``
moves with their cost.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import (
    CONFIGS, HERE, BenchError, Calibrator, RunDir, check_answer, load_json,
    outcome_from_json, pct, pinned_env, precompile, vm_hwm_mb,
)
from layers import merge_traces, overhead, span_metrics, startup_metrics, startup_runs

SERVE_CONFIGS = ("bit", "compiled", "rf-check", "tso", "imm")
SETUP_REPEATS = 3
#: mean reference-host round trips, used to size the hit count from --seconds
MISS_REF_S = 0.007
HIT_REF_S = 0.0012
BOOT_TIMEOUT_S = 60.0


class Daemon:
    """One ``ptxmm serve`` process on an ephemeral port.

    Its stderr goes to ``log`` (never a pipe nobody drains), where the
    daemon announces the port it bound.
    """

    def __init__(self, root: Path, env: Dict[str, str], cache_dir: Path, argv_head: List[str], log: Path):
        self.log = open(log, "w+")
        self.conn = None
        self.proc = subprocess.Popen(
            [*argv_head, "serve", "--port", "0", "--cache-dir", str(cache_dir)],
            env=env, cwd=root, stdout=subprocess.DEVNULL, stderr=self.log,
        )
        try:
            self.port = self._announced_port()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=BOOT_TIMEOUT_S)
            if self.get("/healthz").get("ok") is not True:
                raise BenchError("daemon is not healthy")
        except BaseException:
            self.stop()
            raise

    def _announced_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            self.log.seek(0)
            match = re.search(r"listening on http://[^:]+:(\d+)", self.log.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError("daemon did not announce its port")

    def request(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> Dict:
        status, raw = self.request("GET", path)
        return json.loads(raw) if status == 200 else {}

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.conn is not None:
            self.conn.close()
        self.log.close()


def _plan(seed: int, idents: List[str], seconds: float):
    """``(kind, ident, config)`` ops; a hit names no request yet."""
    rng = random.Random(seed)
    misses = [(ident, config) for ident in idents for config in SERVE_CONFIGS]
    rng.shuffle(misses)
    hits = max(0, int((seconds - len(misses) * MISS_REF_S) / HIT_REF_S))
    kinds = ["hit"] * hits + ["miss"] * (len(misses) - 1)
    rng.shuffle(kinds)
    kinds.insert(0, "miss")  # a hit needs an answered request
    pending = iter(misses)
    return [(kind, *(next(pending) if kind == "miss" else (None, None))) for kind in kinds], rng


def _phase(root, env, argv_head, run_dir, name, deck, golden, seed, seconds, trace_out=None):
    """Boot a daemon, send the plan, stop it; returns the phase's ops and facts."""
    daemon_env = env if trace_out is None else dict(env, PTXBENCH_TRACE_OUT=str(trace_out))
    daemon = Daemon(root, daemon_env, run_dir.sub(f"store-{name}"), argv_head, run_dir.path / f"{name}.log")
    try:
        plan, rng = _plan(seed, list(deck), seconds)
        answered: List[tuple] = []
        ops = []
        cpu_before = daemon.cpu_s()
        for kind, ident, config in plan:
            if kind == "hit":
                ident, config = rng.choice(answered)
            body = {"litmus": deck[ident], **CONFIGS[config]}
            start = time.perf_counter()
            status, raw = daemon.request("POST", "/v1/run", body)
            end = time.perf_counter()
            ops.append({"kind": kind, "key": f"{ident}|{config}", "start": start,
                        "raw_ms": (end - start) * 1000.0,
                        "ok": _check(golden, f"{ident}|{config}", kind, status, raw)})
            if kind == "miss":
                answered.append((ident, config))
        facts = {
            "rss_mb": vm_hwm_mb(daemon.proc.pid),
            "cpu_s": daemon.cpu_s() - cpu_before,
            "stats": daemon.get("/v1/stats"),
        }
    finally:
        daemon.stop()
    return ops, facts


def _check(golden, key, kind, status, raw) -> bool:
    if status != 200:
        return False
    body = json.loads(raw)
    expected_source = "computed" if kind == "miss" else "memory"
    if body.get("source") != expected_source:
        return False
    outcomes = [outcome_from_json(o) for o in body["result"]["outcomes"]]
    return check_answer(golden, key, body["verdict"], outcomes)


def _summary(ops) -> Dict[str, float]:
    misses = [op["norm_ms"] for op in ops if op["kind"] == "miss"]
    hits = [op["norm_ms"] for op in ops if op["kind"] == "hit"]
    return {
        "op_p50": pct(misses, 50),
        "op_p90": pct(misses, 90),
        "hit_p50": pct(hits, 50) if hits else 0.0,
        "hit_p90": pct(hits, 90) if hits else 0.0,
        "ops_per_s": len(ops) / (sum(misses + hits) / 1000.0),
    }


def run(root: Path, seed: int, seconds: float, trace: bool):
    deck, golden = load_json("deck.json"), load_json("golden.json")
    run_dir = RunDir(root, "serve-mixed")
    cal = Calibrator()
    head = [sys.executable, "-m", "repro"]
    try:
        env = pinned_env(root, run_dir.sub("pycache"), run_dir.sub("ptxmm-cache"))
        precompile(root, env, [str(HERE / "warm_serve.py")])
        setups = []
        for index in range(SETUP_REPEATS):
            start = time.perf_counter()
            daemon = Daemon(root, env, run_dir.sub(f"boot{index}"), head, run_dir.path / f"boot{index}.log")
            setups.append((start, time.perf_counter() - start))
            daemon.stop()
        untraced, facts = _phase(
            root, env, head, run_dir, "untraced", deck, golden, seed, seconds / 2 if trace else seconds
        )
        if trace:
            trace_out = run_dir.path / "trace.json"
            traced_head = [sys.executable, str(HERE / "traced.py")]
            ops, facts = _phase(root, env, traced_head, run_dir, "traced", deck, golden, seed, seconds / 2, trace_out)
            startup = startup_runs(root, env)
        cal.stop()
        cal.normalize(untraced + (ops if trace else []))
        summary = _summary(untraced)
        record = {"setup_raw": setups, "untraced_ops": untraced, "summary": summary, "calibration": cal.raw()}
        if not trace:
            metrics = {
                "setup_s": statistics.median(cal.scale(*setup) for setup in setups),
                "op_p50_ms": summary["op_p50"],
                "op_p90_ms": summary["op_p90"],
                "ops_per_s": summary["ops_per_s"],
                "peak_rss_mb": facts["rss_mb"],
            }
        else:
            metrics = startup_metrics(startup, cal)
            metrics.update(_layers(ops, facts, merge_traces([trace_out])))
            metrics.update(overhead(_summary(ops), summary))
            record.update(traced_ops=ops, stats=facts["stats"])
        metrics["host.cal_ms"] = cal.typical_ms()
        everything = untraced + (ops if trace else [])
        record["failures"] = [f"serve-mixed op {op['key']}" for op in everything if not op["ok"]]
        return len(everything), len(record["failures"]), metrics, record
    finally:
        cal.close()
        run_dir.close()


def _layers(ops, facts, trace) -> Dict[str, float]:
    factor = sum(op["norm_ms"] for op in ops) / sum(op["raw_ms"] for op in ops)
    metrics = span_metrics(trace, len(ops), factor * 1000.0)
    spans = trace["spans"]
    hits = sum(1 for op in ops if op["kind"] == "hit")
    misses = len(ops) - hits
    handle_hit = spans.get("serve.handle.hit", [0, 0.0])[1] * factor * 1000.0
    handle_miss = spans.get("serve.handle.miss", [0, 0.0])[1] * factor * 1000.0
    round_trips = sum(op["norm_ms"] for op in ops)
    store = facts["stats"]["store"]
    lookups = store["mem_hits"] + store["disk_hits"] + store["misses"]
    metrics.update({
        "serve.handle_ms.hit": handle_hit / hits if hits else 0.0,
        "serve.handle_ms.miss": handle_miss / misses,
        "serve.http_self_ms": (round_trips - handle_hit - handle_miss) / len(ops),
        "serve.compute_wait_ms": spans.get("session.run_tasks", [0, 0.0])[1] * factor * 1000.0 / misses,
        "serve.server_cpu_ms_per_op": facts["cpu_s"] * factor * 1000.0 / len(ops),
        "store.mem_hit_ratio": store["mem_hits"] / lookups if lookups else 0.0,
        "trace.coverage": (handle_hit + handle_miss) / round_trips,
    })
    return metrics
