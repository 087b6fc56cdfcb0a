"""Run ``ptxmm run FILE --outcomes`` once per CLI configuration, in one
process, so every module a launch imports gets compiled bytecode."""

import contextlib
import io
import runpy  # noqa: F401  (a `-m repro` launch imports it)
import sys

from repro.cli import main

from common import CONFIGS
from cli_oneshot import CLI_CONFIGS

for name in CLI_CONFIGS:
    flags = [part for field, value in CONFIGS[name].items() for part in (f"--{field}", value)]
    with contextlib.redirect_stdout(io.StringIO()):
        main(["run", sys.argv[1], "--outcomes", *flags])
