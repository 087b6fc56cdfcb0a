"""Timed spans around public functions of ``repro``, for traced runs only.

:func:`install` puts an import hook first on ``sys.meta_path``.  When a
listed module finishes executing, the hook replaces the listed public
functions and methods with span-recording wrappers, so every caller
that looks them up afterwards gets the wrapper.  The hook imports
nothing itself: a traced process loads the same modules as an untraced
one, plus this one.

Spans nest per thread.  A span's self time is its duration minus that of
its direct children; a span nested inside one of the same name adds to
the count but not to the inclusive total, so recursion is not counted
twice.  Counters are read from the records the wrapped calls return.
:func:`dump` writes the totals as JSON.
"""

import sys
from _thread import get_ident
from time import perf_counter

#: span name -> [calls, inclusive seconds, self seconds]
SPANS = {}
#: counter name -> value
COUNTS = {}
_STACKS = {}


def _bump(name, amount=1):
    COUNTS[name] = COUNTS.get(name, 0) + amount


def _enter(name):
    stack = _STACKS.setdefault(get_ident(), [])
    frame = [name, perf_counter(), 0.0]
    stack.append(frame)
    return frame


def _exit(frame):
    duration = perf_counter() - frame[1]
    stack = _STACKS[get_ident()]
    stack.pop()
    if stack:
        stack[-1][2] += duration
    totals = SPANS.setdefault(frame[0], [0, 0.0, 0.0])
    totals[0] += 1
    totals[2] += duration - frame[2]
    if all(outer[0] != frame[0] for outer in stack):
        totals[1] += duration


def _wrap(fn, name, hook):
    if fn.__code__.co_flags & 0x80:  # CO_COROUTINE

        async def wrapper(*args, **kwargs):
            frame = _enter(name)
            try:
                result = await fn(*args, **kwargs)
                if hook is not None:
                    hook(frame, result, args, kwargs)
                return result
            finally:
                _exit(frame)

    else:

        def wrapper(*args, **kwargs):
            frame = _enter(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(frame, result, args, kwargs)
                return result
            finally:
                _exit(frame)

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


# -- counters read from returned records --------------------------------

_ENUM_FIELDS = (
    "rf_assignments", "rf_pruned", "pre_co_pruned", "candidates_checked",
    "saturation_steps", "fallbacks",
)
_SAT_FIELDS = ("conflicts", "decisions", "propagations")


def _on_decide(frame, result, args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    if config.model == "ptx" and config.engine == "enumerative":
        prefix = f"search.ptx.{config.kernel}."
    elif config.engine == "rf-check":
        prefix = "search.rf_check."
    else:
        prefix = None
    stats = result.enum_stats
    if prefix is not None and stats is not None:
        _bump(prefix + "outcomes", len(result.outcomes))
        for field in _ENUM_FIELDS:
            _bump(prefix + field, getattr(stats, field))
    if result.solver_stats is not None:
        for field in _SAT_FIELDS:
            _bump("sat." + field, getattr(result.solver_stats, field))


def _on_elaborate(frame, result, args, kwargs):
    _bump("elaborate.events", len(result.events))


def _on_translate(frame, result, args, kwargs):
    _bump("kodkod.cnf_vars", result.cnf.num_vars)
    _bump("kodkod.cnf_clauses", len(result.cnf.clauses))


def _on_observe(frame, result, args, kwargs):
    _bump("fuzz.new_features", len(result))


def _on_handle(frame, result, args, kwargs):
    status, body = result
    if isinstance(body, dict) and "source" in body:
        frame[0] = "serve.handle.hit" if body["source"] == "memory" else "serve.handle.miss"


#: module -> (attribute path, span name, counter hook)
TARGETS = {
    "repro.cli": [("main", "cli.main", None)],
    "repro.litmus.parser": [("parse_litmus", "parser", None)],
    "repro.ptx.program": [("elaborate", "elaborate", _on_elaborate)],
    "repro.lang.compile": [("compiled_model", "compile", None)],
    "repro.search.ptx_search": [("allowed_outcomes", "search.ptx", None)],
    "repro.search.rf_check": [("rf_check_outcomes", "search.rf_check", None)],
    "repro.search.total_search": [("allowed_outcomes_total", "search.total", None)],
    "repro.zoo.engine": [("zoo_outcomes", "zoo", None)],
    "repro.operational.machine": [
        ("sc_operational_outcomes", "operational", None),
        ("tso_operational_outcomes", "operational", None),
    ],
    "repro.kodkod.finder": [("translate_problem", "kodkod.translate", _on_translate)],
    "repro.sat.solver": [
        ("Solver.__init__", "sat.init", None),
        ("Solver.solve", "sat.solve", None),
    ],
    "repro.litmus.runner": [("decide_filtered", "runner.decide", _on_decide)],
    "repro.litmus.session": [("Session.run_tasks", "session.run_tasks", None)],
    "repro.litmus.serialize": [
        ("test_to_dict", "serialize", None),
        ("result_to_dict", "serialize", None),
        ("verdict_digest", "serialize", None),
    ],
    "repro.serve.service": [("VerdictService.handle", "serve.handle", _on_handle)],
    "repro.serve.store": [
        ("VerdictStore.get", "store.get", None),
        ("VerdictStore.put", "store.put", None),
    ],
    "repro.litmus.cache": [("ResultCache.put", "cache.put", None)],
    "repro.fuzz.gen": [("generate_case", "fuzz.gen", None)],
    "repro.fuzz.oracle": [("Oracle.evaluate", "fuzz.oracle", None)],
    "repro.fuzz.coverage": [
        ("CoverageMap.observe", "fuzz.coverage", _on_observe),
        ("bias_from_coverage", "fuzz.coverage", None),
        ("case_features", "fuzz.coverage", None),
        ("result_features", "fuzz.coverage", None),
    ],
    "repro.fuzz.farm": [("run_farm", "fuzz.farm", None)],
}


def _instrument(module):
    for path, name, hook in TARGETS[module.__name__]:
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, _wrap(getattr(owner, attr), name, hook))


class _Loader:
    def __init__(self, inner):
        self.inner = inner

    def create_module(self, spec):
        return self.inner.create_module(spec)

    def exec_module(self, module):
        self.inner.exec_module(module)
        _instrument(module)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _Finder:
    def find_spec(self, name, path=None, target=None):
        if name not in TARGETS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                spec.loader = _Loader(spec.loader)
                return spec
        return None


def install():
    sys.meta_path.insert(0, _Finder())


def dump(path):
    """Write the span totals and counters (call after the traced work)."""
    import json

    compile_module = sys.modules.get("repro.lang.compile")
    if compile_module is not None:
        for name, value in compile_module.compile_cache_stats().items():
            COUNTS["compile." + name] = value
    with open(path, "w") as handle:
        json.dump({"spans": SPANS, "counts": COUNTS}, handle)
