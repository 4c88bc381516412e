"""The traced benchmark still runs against the engine and calculus it wraps.

`perfbench/tracer.py` wraps engine, calculus and field methods by name, so
renaming, deleting or bypassing one of them breaks the benchmark without
failing any other test.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# the per-round trace a traced run writes
TRACE_FILE = REPO / "perfbench" / "out" / "rounds-scr-static-seed1.csv"


def test_a_short_traced_scr_run_counts_every_wrapped_engine_call():
    command = [
        sys.executable, "perfbench/workload.py",
        "--workload", "scr-static", "--seed", "1", "--horizon", "0.3", "--trace", "1",
    ]
    trace_existed = TRACE_FILE.exists()
    try:
        finished = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=120)
    finally:
        if not trace_existed:
            TRACE_FILE.unlink(missing_ok=True)
    assert finished.returncode == 0, finished.stderr
    report = json.loads(finished.stdout.strip().splitlines()[-1])
    assert REPO / report["trace_file"] == TRACE_FILE
    per_layer = report["per_layer"]
    assert per_layer["engine.enter_per_round"][0] == 12
    for call in ("receive", "neighbor_values", "exit"):
        assert per_layer[f"engine.{call}.calls"][0] > 0, call
    # the tracer wraps field methods by name too: folds that bypass them read 0
    assert per_layer["fields.fold.calls"][0] > 0
