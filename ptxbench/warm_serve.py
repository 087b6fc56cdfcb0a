"""Boot ``ptxmm serve`` once and ask one question per configuration, so
every module the daemon imports gets compiled bytecode."""

import os
import sys
import tempfile
from pathlib import Path

from common import CONFIGS, load_json
from serve_mixed import SERVE_CONFIGS, Daemon

deck = load_json("deck.json")
text = next(iter(deck.values()))
with tempfile.TemporaryDirectory(dir=Path.cwd() / ".ptxbench_runs") as store:
    daemon = Daemon(
        Path.cwd(), dict(os.environ), Path(store), [sys.executable, "-m", "repro"],
        Path(store) / "serve.log",
    )
    try:
        for name in SERVE_CONFIGS:
            status, _ = daemon.request("POST", "/v1/run", {"litmus": text, **CONFIGS[name]})
            if status != 200:
                sys.exit(f"warm-up request {name} failed: HTTP {status}")
    finally:
        daemon.stop()
