"""The benchmark's traced run reports every per-layer metric it declares.

``perfbench/tracing.py`` wraps named functions of the program; a name the
program no longer has drops its metrics from the traced run's result line
and prints ``absent:`` on standard error.  This runs the traced ``tables``
workload briefly and holds its last line to ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_tables_run_reports_every_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables",
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert missing == []
    absent = [line for line in done.stderr.splitlines()
              if line.startswith("absent:")]
    assert absent == []
