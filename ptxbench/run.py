"""End-to-end benchmark of the PTX litmus checker, driven from outside.

    python3 ptxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads:

* ``cli-oneshot`` — fresh ``ptxmm run FILE --outcomes`` launches;
* ``serve-mixed`` — one ``ptxmm serve`` daemon, one client connection,
  every deck program computed once among repeats of earlier requests;
* ``farm`` — the coverage-guided fuzzing farm with its CLI defaults.

Every time is scaled to the reference host by an interleaved calibration
loop (see ``common.Calibrator``).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced and
reports the per-layer metrics, span coverage and tracing overhead.  Each
run prints every metric by name with its unit, keeps its full record
(raw times, calibration samples, metadata) under
``.ptxbench_records/``, and ends with one JSON line.  Every op's answer
is checked against ``golden.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import cli_oneshot
import farm
import serve_mixed
from common import BenchError, checkout_root, metadata, pin_cpu, write_record
from layers import complete

WORKLOADS = {
    "cli-oneshot": cli_oneshot.run,
    "serve-mixed": serve_mixed.run,
    "farm": farm.run,
}

#: (name, unit) of the end-to-end metrics every workload reports
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        root = checkout_root()
        cpu = pin_cpu()
        started = time.perf_counter()
        attempted, failed, values, record = WORKLOADS[args.workload](
            root, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics = complete(values)
    else:
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    meta = metadata(root, args.workload, args.seed, bool(args.trace))
    meta["wall_s"] = time.perf_counter() - started
    meta["cpu"] = cpu
    path = write_record(root, meta, {"metrics": metrics, "attempted": attempted, "failed": failed, **record})
    # the first few failures, so a refused run says what went wrong
    for line in record.get("failures", [])[:10]:
        print(f"failed: {line}", file=sys.stderr)
    for key, value in meta.items():
        print(f"# {key}: {value}")
    print(f"# record: {path.relative_to(root)}")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>14.4f} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
