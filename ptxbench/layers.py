"""Per-layer metrics of a traced run, from span totals and counters.

Every workload reports every metric; a layer a workload never enters
reads 0.  Times are milliseconds per op, scaled to the reference host
like the end-to-end times.  An op is a launch (cli-oneshot), a request
(serve-mixed) or a generated case (farm).
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List

#: (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("interp.startup_ms", "ms"),
    ("import.repro_ms", "ms"),
    ("import.modules", "count"),
    ("cli.main_self_ms", "ms"),
    ("parser.ms", "ms"),
    ("parser.calls", "count"),
    ("elaborate.ms", "ms"),
    ("elaborate.events", "count"),
    ("compile.ms", "ms"),
    ("compile.instances", "count"),
    ("compile.hits", "count"),
    ("search.ptx.ms", "ms"),
    *[
        (f"search.ptx.{kernel}.{field}", unit)
        for kernel in ("bit", "compiled")
        for field, unit in (
            ("rf_assignments", "count"),
            ("rf_pruned", "count"),
            ("pre_co_pruned", "count"),
            ("candidates_checked", "count"),
            ("outcomes_per_candidate", "ratio"),
        )
    ],
    ("search.rf_check.ms", "ms"),
    ("search.rf_check.saturation_steps", "count"),
    ("search.rf_check.fallbacks", "count"),
    ("search.total.ms", "ms"),
    ("zoo.ms", "ms"),
    ("zoo.calls", "count"),
    ("operational.ms", "ms"),
    ("kodkod.translate_ms", "ms"),
    ("kodkod.cnf_vars", "count"),
    ("kodkod.cnf_clauses", "count"),
    ("sat.init_ms", "ms"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("runner.decide_self_ms", "ms"),
    ("session.run_tasks_self_ms", "ms"),
    ("serialize.ms", "ms"),
    ("serve.handle_ms.hit", "ms"),
    ("serve.handle_ms.miss", "ms"),
    ("serve.http_self_ms", "ms"),
    ("serve.compute_wait_ms", "ms"),
    ("serve.server_cpu_ms_per_op", "ms"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.mem_hit_ratio", "ratio"),
    ("cache.put_ms", "ms"),
    ("fuzz.gen_ms_per_case", "ms"),
    ("fuzz.oracle_ms_per_case", "ms"),
    ("fuzz.engine_runs_per_case", "count"),
    ("fuzz.coverage_ms_per_case", "ms"),
    ("fuzz.new_features_per_case", "count"),
    ("fuzz.farm_self_ms", "ms"),
    ("host.cal_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead.op_p50", "ratio"),
    ("trace.overhead.op_p90", "ratio"),
    ("trace.overhead.ops_per_s", "ratio"),
]


def merge_traces(paths: Iterable[Path]) -> Dict:
    """Sum the span totals and counters of several trace files."""
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        for name, (calls, total, self_) in data["spans"].items():
            into = spans.setdefault(name, [0, 0.0, 0.0])
            into[0] += calls
            into[1] += total
            into[2] += self_
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def span_metrics(trace: Dict, ops: int, factor: float) -> Dict[str, float]:
    """The metrics that come straight from spans and counters.

    ``factor`` scales seconds to reference-host milliseconds.
    """
    spans, counts = trace["spans"], trace["counts"]

    def total(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[1] for n in names) * factor / ops

    def self_ms(name):
        return spans.get(name, [0, 0.0, 0.0])[2] * factor / ops

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0] / ops

    def count(name):
        return counts.get(name, 0) / ops

    out = {
        "cli.main_self_ms": self_ms("cli.main"),
        "parser.ms": total("parser"),
        "parser.calls": calls("parser"),
        "elaborate.ms": total("elaborate"),
        "elaborate.events": count("elaborate.events"),
        "compile.ms": total("compile"),
        "compile.instances": count("compile.instances"),
        "compile.hits": count("compile.hits"),
        "search.ptx.ms": total("search.ptx"),
        "search.rf_check.ms": total("search.rf_check"),
        "search.rf_check.saturation_steps": count("search.rf_check.saturation_steps"),
        "search.rf_check.fallbacks": count("search.rf_check.fallbacks"),
        "search.total.ms": total("search.total"),
        "zoo.ms": total("zoo"),
        "zoo.calls": calls("zoo"),
        "operational.ms": total("operational"),
        "kodkod.translate_ms": total("kodkod.translate"),
        "kodkod.cnf_vars": count("kodkod.cnf_vars"),
        "kodkod.cnf_clauses": count("kodkod.cnf_clauses"),
        "sat.init_ms": total("sat.init"),
        "sat.solve_ms": total("sat.solve"),
        "sat.conflicts": count("sat.conflicts"),
        "sat.decisions": count("sat.decisions"),
        "sat.propagations": count("sat.propagations"),
        "runner.decide_self_ms": self_ms("runner.decide"),
        "session.run_tasks_self_ms": self_ms("session.run_tasks"),
        "serialize.ms": total("serialize"),
        "store.get_ms": total("store.get"),
        "store.put_ms": total("store.put"),
        "cache.put_ms": total("cache.put"),
        "fuzz.gen_ms_per_case": total("fuzz.gen"),
        "fuzz.oracle_ms_per_case": total("fuzz.oracle"),
        "fuzz.engine_runs_per_case": calls("runner.decide"),
        "fuzz.coverage_ms_per_case": total("fuzz.coverage"),
        "fuzz.new_features_per_case": count("fuzz.new_features"),
        "fuzz.farm_self_ms": self_ms("fuzz.farm"),
    }
    for kernel in ("bit", "compiled"):
        prefix = f"search.ptx.{kernel}."
        for field in ("rf_assignments", "rf_pruned", "pre_co_pruned", "candidates_checked"):
            out[prefix + field] = count(prefix + field)
        checked = counts.get(prefix + "candidates_checked", 0)
        out[prefix + "outcomes_per_candidate"] = (
            counts.get(prefix + "outcomes", 0) / checked if checked else 0.0
        )
    return out


def startup_runs(root: Path, env: Dict[str, str]) -> Dict:
    """Time interpreter start and ``import repro.cli`` in fresh processes.

    Returns raw ``(start, seconds)`` intervals and the import breakdown;
    :func:`startup_metrics` scales them once calibration has stopped.
    """
    startup, imports, modules = [], [], 0
    for _ in range(7):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root, check=True)
        startup.append((start, time.perf_counter() - start))
    for _ in range(3):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env, cwd=root, check=True, stderr=subprocess.PIPE, text=True,
        )
        rows = re.findall(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", done.stderr)
        # cumulative microseconds of the outermost repro imports
        micros = sum(int(c) for c, indent, name in rows if name.startswith("repro") and not indent)
        imports.append((start, micros / 1e6))
        modules = len(rows)
    return {"startup": startup, "imports": imports, "modules": modules}


def startup_metrics(runs: Dict, cal) -> Dict[str, float]:
    return {
        "interp.startup_ms": statistics.median(cal.scale(*r) for r in runs["startup"]) * 1000.0,
        "import.repro_ms": statistics.median(cal.scale(*r) for r in runs["imports"]) * 1000.0,
        "import.modules": runs["modules"],
    }


def overhead(traced: Dict[str, float], untraced: Dict[str, float]) -> Dict[str, float]:
    """Traced-vs-untraced change of the end-to-end medians, as shares."""
    return {
        f"trace.overhead.{name}": traced[name] / untraced[name] - 1.0
        for name in ("op_p50", "op_p90", "ops_per_s")
    }


def complete(values: Dict[str, float]) -> Dict[str, Dict]:
    """Every per-layer metric with its unit (0 where the layer was idle)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in LAYER_METRICS
    }
