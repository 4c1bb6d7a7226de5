"""Reference timings of the table reproduction; not a workload.

    python3 perfbench/reproduce_times.py

Times ``run_table`` (what ``womops reproduce --table`` runs) for T3-T6 with
``WOMOPS_THREADS=1`` and with one worker per core, and prints a Markdown
table for README.md.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from womops.experiments import ExperimentConfig, TableId, run_table  # noqa: E402


def main() -> None:
    cores = os.cpu_count() or 1
    config = ExperimentConfig()
    print(f"| table | WOMOPS_THREADS=1 (s) | WOMOPS_THREADS={cores} (s) |")
    print("|---|---|---|")
    for table in TableId:
        seconds = []
        for threads in (1, cores):
            os.environ["WOMOPS_THREADS"] = str(threads)
            start = time.perf_counter()
            run_table(config, table)
            seconds.append(time.perf_counter() - start)
        print(f"| {table.value} | {seconds[0]:.2f} | {seconds[1]:.2f} |")


if __name__ == "__main__":
    main()
