"""Regenerate ``deck.json`` and ``golden.json`` from the repository.

Run from the repository root::

    python3 ptxbench/make_golden.py

The deck is every program the workloads send: the 41-test suite, the
length-4 external-edge corpus (CORPUS4), the distilled regression corpus
and relaxed ``PodWW Wse`` chains of 4-7 threads.
Programs travel as litmus text, so each answer is computed from the
re-parsed text, exactly as the CLI and the service see it.

Every answer comes from the ``set`` relation kernel on the enumerative
engine (the reference the faster kernels and engines are checked
against), never from a configuration the benchmark measures.  Where the
suite or the regression corpus documents a verdict for the model, the
reference must agree with it or generation stops.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.api import RunConfig, regression_corpus, run_litmus  # noqa: E402
from repro.litmus.compare import VARIANTS  # noqa: E402
from repro.litmus.corpus import corpus4  # noqa: E402
from repro.litmus.generator import generate  # noqa: E402
from repro.litmus.parser import parse_litmus  # noqa: E402
from repro.litmus.serialize import outcome_to_dict, test_to_litmus  # noqa: E402
from repro.litmus.suite import SUITE  # noqa: E402

from common import CONFIGS, outcome_digest, outcome_from_json  # noqa: E402


def deck_programs():
    """``(deck id, LitmusTest)`` for every program, in a fixed order."""
    for test in SUITE:
        yield f"suite/{test.name}", test
    for cycle, variant, generated in corpus4():
        yield f"c4/{cycle}/{variant}", generated.test
    for test in regression_corpus(str(HERE.parent / "tests" / "regression_corpus")):
        yield f"reg/{test.name}", test
    for threads in range(4, 8):
        spec = " ".join(["PodWW Wse"] * threads)
        name = f"PodWW-Wse-x{threads}"
        yield f"chain/{threads}", generate(spec, name=name, **VARIANTS["relaxed.gpu"]).test


def _documented(ident, test) -> bool:
    """Whether ``test``'s expectation is documented rather than a
    generator's placeholder, and survives the trip through litmus text
    (search options do not)."""
    generated = ident.startswith(("c4/", "chain/", "reg/fuzz_"))
    return not generated and not test.search_opts


def main() -> int:
    deck, golden, seen = {}, {}, set()
    for ident, original in deck_programs():
        text = test_to_litmus(original)
        if text in seen:
            continue  # identical text would be one store key: not a miss
        seen.add(text)
        test = parse_litmus(text)
        deck[ident] = text
        reference = {}
        for config_name, config in CONFIGS.items():
            model = config.get("model", "ptx")
            if model not in reference:
                reference[model] = run_litmus(test, config=RunConfig(model=model, kernel="set"))
            result = reference[model]
            if result.status != "ok":
                raise SystemExit(f"{ident} {config_name}: reference {result.status}")
            documented = original.expected(model) if _documented(ident, original) else None
            if documented is not None and documented != result.verdict:
                raise SystemExit(
                    f"{ident} {config_name}: reference says "
                    f"{result.verdict.value}, suite documents {documented.value}"
                )
            # one bounded SAT query decides the verdict but lists no outcomes
            outcomes = None
            if config.get("engine") != "symbolic":
                outcomes = outcome_digest(
                    outcome_from_json(outcome_to_dict(o)) for o in result.outcomes
                )
            golden[f"{ident}|{config_name}"] = {
                "verdict": result.verdict.value,
                "outcomes": outcomes,
            }
    (HERE / "deck.json").write_text(json.dumps(deck, indent=1) + "\n")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(deck)} programs, {len(golden)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
