"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run.  Details of failed operations and the span summary go to standard
error.  The workloads, metrics and seeds are described in README.md.
"""

from __future__ import annotations

import os

# One thread: the numbers measure the solver, not the scheduler.  Set
# before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "WOMOPS_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5   # this process plus four fresh interpreters
MAX_REPORTED_FAILURES = 5
# Operations and set-up are timed by the CPU time of this process (user
# plus system, all threads).  On a shared virtual machine the wall clock
# also counts the time the host gives this vCPU to other guests (steal)
# and the time other processes hold the core; CPU time leaves both out.
cpu_clock = time.process_time


def load_workload(name: str, seed: int, out_dir: str):
    """Import the program and build the workload's inputs.

    Everything here is what ``setup_s`` measures.
    """
    sys.path.insert(0, str(SRC))
    import womops
    if Path(womops.__file__).resolve().parent != SRC / "womops":
        raise ImportError(f"womops imported from {womops.__file__}, "
                          f"not from {SRC}")
    import workloads
    return workloads.WORKLOADS[name](seed, out_dir)


def measure(workload, seconds: float, tracer=None, rounds: int | None = None):
    """Run whole rounds for ``seconds`` of wall time (or ``rounds`` rounds).

    Each operation is timed on its own by ``cpu_clock``; its check runs
    outside the timed interval (and outside the trace).  Returns the
    latencies, the failures, the median latency of each round and the
    total operation time.
    """
    deadline = time.perf_counter() + seconds
    latencies: list[float] = []
    failures: list[tuple[str, str | None, list[str]]] = []
    medians: list[float] = []
    while rounds is None or len(medians) < rounds:
        ops = workload.round(len(medians))
        first = len(latencies)
        for op in ops:
            span = tracer.operation("op." + op.kind) if tracer else nullcontext()
            start = cpu_clock()
            with span:
                try:
                    out, error = op.run(), None
                except Exception as exc:  # a failed operation, not a crash
                    out, error = None, exc
            elapsed = cpu_clock() - start
            latencies.append(elapsed)
            with tracer.paused() if tracer else nullcontext():
                problems = ([f"raised {error!r}"] if error is not None
                            else checked(op, out))
            if problems:
                failures.append((op.kind, op.fault, problems))
        medians.append(statistics.median(latencies[first:]))
        if (rounds is None and len(medians) >= workload.min_rounds
                and time.perf_counter() >= deadline):
            break
    return latencies, failures, medians, math.fsum(latencies)


def checked(op, out) -> list[str]:
    """The check's problems; a check that cannot run is a problem too."""
    try:
        return op.check(out)
    except Exception as exc:  # e.g. a closed form that no longer applies
        return [f"check raised {exc!r}"]


def tail_rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n`` values."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[tail_rank(len(ordered), pct) - 1]


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of one fresh interpreter (import plus input generation)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def report_failures(failures) -> bool:
    """Print failed operations to stderr; True when all are known faults."""
    known = Counter(fault for _, fault, _ in failures if fault is not None)
    unexpected = [f for f in failures if f[1] is None]
    for fault, n in known.items():
        print(f"known fault, {n} operations: {fault}", file=sys.stderr)
    for kind, _, problems in unexpected[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {kind}: " + "; ".join(problems), file=sys.stderr)
    return not unexpected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "feedback", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    start = cpu_clock()
    try:
        workload = load_workload(args.workload, args.seed, str(run_dir))
    except ImportError as exc:
        print(f"cannot load the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup = cpu_clock() - start
    if args.setup_probe:
        print(repr(setup))
        return 0
    # The inputs live for the whole run; keep them out of the collector's
    # scans so its pauses depend on the program's garbage alone.
    gc.collect()
    gc.freeze()

    try:
        if args.trace:
            metrics, attempted, failures = traced_run(workload, args)
        else:
            latencies, failures, medians, busy = measure(workload,
                                                         args.seconds)
            setups = [setup] + [setup_probe(args.workload, args.seed)
                                for _ in range(SETUP_SAMPLES - 1)]
            attempted = len(latencies)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                # Totals and a mean of medians move smoothly as the
                # machine's speed changes within a run; a median over all
                # rounds or all latencies jumps between its speeds.
                "ops_per_s": (attempted / busy, "ops/s"),
                "op_p50_ms": (1e3 * statistics.fmean(medians), "ms"),
                "op_tail_ms": (1e3 * percentile(latencies, workload.tail_pct),
                               "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = report_failures(failures)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def traced_run(workload, args):
    """Per-layer metrics: a traced run, then the same rounds untraced."""
    import tracing
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        latencies, failures, medians, traced_busy = measure(
            workload, args.seconds, tracer)
    finally:
        tracer.restore()
    rounds = len(medians)
    plain_busy = measure(workload, args.seconds, rounds=rounds)[3]

    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{args.workload}.npz"))
    for name, s in sorted(tracer.summary().items()):
        if s["calls"]:
            print(f"span {name}: {s['calls']} calls, total {s['total_s']:.3f} s,"
                  f" self {s['self_s']:.3f} s", file=sys.stderr)
    for name in tracer.absent:
        print(f"absent: {name} (its metrics are left out)", file=sys.stderr)

    metrics = tracing.layer_metrics(tracer, len(latencies), rounds)
    metrics["tracing.overhead_s"] = (traced_busy - plain_busy, "s")
    return metrics, len(latencies), failures


if __name__ == "__main__":
    sys.exit(main())
