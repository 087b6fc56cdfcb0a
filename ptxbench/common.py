"""Shared plumbing: pinned process state, host calibration, known answers.

Nothing here imports ``repro``: the workloads drive the program from
outside, through ``python -m repro`` processes, HTTP, or a child process
that imports only ``repro.api``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent

#: configurations a deck program is asked under, as RunConfig fields;
#: the CLI spells each as ``--field value``, the service as request fields
CONFIGS: Dict[str, Dict[str, str]] = {
    "bit": {"kernel": "bit"},
    "compiled": {"kernel": "compiled"},
    "rf-check": {"engine": "rf-check"},
    "symbolic": {"engine": "symbolic"},
    "tso": {"model": "tso"},
    "imm": {"model": "imm"},
}

#: every process under test hashes the same way
HASH_SEED = "0"

#: calibration loop time on the reference host (a 2-vCPU Intel Xeon at
#: 2.0 GHz, with no other tenant on the core), ms.  Every reported time is
#: raw time x (REF_CAL_MS / the loop time measured while it ran).
REF_CAL_MS = 0.3
#: seconds between calibration loops (the loop takes a few percent of that)
CAL_PERIOD_S = 0.01


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed setup)."""


# -- checkout layout and pinned environment ------------------------------


def checkout_root() -> Path:
    """The checkout the benchmark runs from (the current directory)."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no src/repro package under {root}")
    return root


class RunDir:
    """Run-owned scratch space inside the checkout, removed on close."""

    def __init__(self, root: Path, label: str) -> None:
        base = root / ".ptxbench_runs"
        base.mkdir(exist_ok=True)
        self.path = base / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
        self.path.mkdir()

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def pinned_env(root: Path, pycache: Path, cache_dir: Path) -> Dict[str, str]:
    """Environment for every process under test.

    Bytecode comes from a run-owned prefix that setup fills, and is
    never written afterwards, whatever the caller's environment says.
    """
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPYCACHEPREFIX=str(pycache),
        PYTHONDONTWRITEBYTECODE="1",
        PTXMM_CACHE_DIR=str(cache_dir),
    )
    return env


def precompile(root: Path, env: Dict[str, str], warm_argv: Sequence[str]) -> None:
    """Fill the bytecode prefix: compile ``repro``, then run ``warm_argv``
    with writing allowed so the standard-library modules it imports are
    cached too."""
    writable = dict(env)
    writable.pop("PYTHONDONTWRITEBYTECODE", None)
    for argv in (
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "repro")],
        [sys.executable, *warm_argv],
    ):
        done = subprocess.run(
            argv, env=writable, cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise BenchError(f"{argv[1:3]} failed: {done.stderr[-400:]}")


def source_digest(root: Path) -> str:
    """sha256 over every file of ``src/`` (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(root: Path, workload: str, seed: int, trace: bool) -> Dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "hash_seed": HASH_SEED,
        "ref_cal_ms": REF_CAL_MS,
    }


def pin_cpu() -> Optional[int]:
    """Run this process and everything it starts on one CPU.

    The calibration loop and the program then share one core's
    contention; on two CPUs they would each see their own.  Returns the
    CPU, or None where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


# -- host calibration ----------------------------------------------------


class Calibrator:
    """A helper process timing a fixed pure-Python loop all through a run.

    It never imports the program, so the program's heap cannot skew it,
    and shares the program's CPU (see :func:`pin_cpu`), so it sees the
    same contention.  Host speed flips between fast and slow states that
    last tenths of a second; scaling each op by the samples taken while
    it ran removes most of that from the reported times.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), str(CAL_PERIOD_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise BenchError("calibration helper failed to start")
        self.times: List[float] = []
        #: loop times, ms, in the order taken
        self.samples: List[float] = []

    def stop(self) -> None:
        """End sampling and collect the samples (once, after the last op)."""
        if self.proc.poll() is None and not self.proc.stdin.closed:
            self.proc.stdin.close()
            for line in self.proc.stdout:
                start, loop_ms = line.split()
                self.times.append(float(start))
                self.samples.append(float(loop_ms))
            self.proc.wait()
        if len(self.samples) < 2:
            raise BenchError("too few calibration samples")

    def factor(self, start: float, end: float) -> float:
        """REF_CAL_MS / the geometric mean of the samples taken between
        ``start`` and ``end`` (at least the two nearest): scales a raw
        time measured in that interval to the reference host."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return REF_CAL_MS / _geomean(self.samples[lo:hi])

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, in reference-host seconds."""
        return seconds * self.factor(start, start + seconds)

    def normalize(self, ops: List[Dict]) -> None:
        """Add ``norm_ms`` to ops that carry ``start`` and ``raw_ms``."""
        for op in ops:
            op["norm_ms"] = self.scale(op["start"], op["raw_ms"] / 1000.0) * 1000.0

    def typical_ms(self) -> float:
        """The geometric mean of all samples."""
        return _geomean(self.samples)

    def raw(self) -> List[List[float]]:
        return [[round(t, 4), round(v, 4)] for t, v in zip(self.times, self.samples)]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def _geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


# -- known answers -------------------------------------------------------


def load_json(name: str):
    return json.loads((HERE / name).read_text())


def outcome_from_json(obj: Dict) -> str:
    """Canonical text of one serialized outcome (``/v1/run`` format)."""
    regs = sorted(
        f"d{tid[0]}c{tid[1]}t{tid[2]}:{name}={value}"
        for tid, name, value in obj["registers"]
    )
    mem = sorted(
        f"{loc}={','.join(str(v) for v in sorted(values))}"
        for loc, values in obj["memory"]
    )
    return ";".join(regs) + "|" + ";".join(mem)


_MEM_RE = re.compile(r"\[([^\]]+)\]=(\{[^}]*\}|set\(\))")


def outcome_from_repr(line: str) -> str:
    """Canonical text of one ``ptxmm run --outcomes`` line."""
    body = line.strip()
    if not (body.startswith("<Outcome ") and body.endswith(">")):
        raise ValueError(f"not an outcome line: {line!r}")
    regs_text, _, mem_text = body[len("<Outcome "):-1].partition(" | ")
    regs = sorted(r for r in regs_text.split(", ") if r)
    mem = []
    for loc, values in _MEM_RE.findall(mem_text):
        numbers = sorted(int(v) for v in re.findall(r"-?\d+", values))
        mem.append(f"{loc}={','.join(str(v) for v in numbers)}")
    return ";".join(regs) + "|" + ";".join(sorted(mem))


def outcome_digest(outcomes: Iterable[str]) -> str:
    text = "\n".join(sorted(outcomes))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_answer(golden: Dict, key: str, verdict: str, outcomes: Optional[List[str]]) -> bool:
    """Whether one op's answer matches the known answer for ``key``."""
    known = golden[key]
    if verdict != known["verdict"]:
        return False
    if known["outcomes"] is None:
        return True
    return outcomes is not None and outcome_digest(outcomes) == known["outcomes"]


# -- statistics and output ----------------------------------------------


def pct(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method); q=50 is the median."""
    if len(values) == 1:
        return float(values[0])
    if q == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def write_record(root: Path, meta: Dict, record: Dict) -> Path:
    """Keep a run's full record (raw times, calibration) in the checkout."""
    directory = root / ".ptxbench_records"
    directory.mkdir(exist_ok=True)
    path = directory / (
        f"{meta['workload']}-seed{meta['seed']}-trace{int(meta['trace'])}"
        f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    path.write_text(json.dumps({"meta": meta, **record}, indent=1, sort_keys=True))
    return path
