"""``python ptxbench/traced.py ARGS`` = ``python -m repro ARGS``, traced.

Installs the span hook, imports the CLI under an ``import.repro`` span,
runs ``repro`` as ``__main__`` and writes the trace to the file named by
``$PTXBENCH_TRACE_OUT`` on the way out.
"""

import os
import runpy

import tracer

tracer.install()
frame = tracer._enter("import.repro")
import repro.cli  # noqa: E402,F401

tracer._exit(frame)
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
finally:
    tracer.dump(os.environ["PTXBENCH_TRACE_OUT"])
