"""The farm process under test: ``run_farm`` with the CLI defaults.

    python ptxbench/farm_child.py --seed N --count C [--trace-out FILE]

Imports ``repro.api`` and warms up with a small farm of its own, then
prints ``ready IMPORT_S WARM_S`` and waits for a line on stdin: ``go``
(or a closed stdin) runs the measured farm, anything else exits.  After
each round it prints ``round CASES START_S SECONDS`` (``perf_counter``
clock), and it ends with ``done`` and a JSON summary.
"""

import argparse
import json
import resource
import sys
import time

#: the warm-up farm: its own seed, one short round, no seed corpus
WARM_SEED = 1_000_003
WARM_COUNT = 8


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    if args.trace_out is not None:
        import tracer

        tracer.install()
    start = time.perf_counter()
    from repro.api import FarmConfig, run_farm
    from repro.fuzz import FuzzBudget

    imported = time.perf_counter()
    run_farm(FarmConfig(
        seed=WARM_SEED, budget=FuzzBudget(count=WARM_COUNT), seed_corpus=False
    ))
    warmed = time.perf_counter()
    print(f"ready {imported - start:.6f} {warmed - imported:.6f}", flush=True)
    if sys.stdin.readline().strip() not in ("go", ""):
        return 0
    if args.trace_out is not None:
        # the warm-up's spans are set-up, not farm work
        tracer.SPANS.clear()
        tracer.COUNTS.clear()

    last = [time.perf_counter(), 0]

    def progress(report):
        now = time.perf_counter()
        print(f"round {report.next_index - last[1]} {last[0]:.6f} {now - last[0]:.6f}", flush=True)
        last[:] = [now, report.next_index]

    report = run_farm(
        FarmConfig(seed=args.seed, budget=FuzzBudget(count=args.count)),
        progress=progress,
    )
    if args.trace_out is not None:
        tracer.dump(args.trace_out)
    summary = {
        "generated": report.stats.generated,
        "checks_run": report.stats.checks_run,
        "undecided": report.stats.undecided,
        "discrepancies": report.stats.discrepancies,
        "found_total": report.found_total,
        "coverage": len(report.coverage),
        "coverage_digest": report.coverage.digest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # each case replays from (seed, index)
        "found": [
            {
                "index": found.case.index,
                "kind": found.discrepancy.kind,
                "engines": [found.discrepancy.left_label, found.discrepancy.right_label],
                "detail": found.discrepancy.detail,
            }
            for found in report.found
        ],
    }
    print("done " + json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
