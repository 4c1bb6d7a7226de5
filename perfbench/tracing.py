"""Spans for the traced run, recorded from the benchmark's own files.

The traced run wraps, for its duration, the module-level names through
which one layer of the program calls the next.  Each call becomes a span
(name, start, end, parent span, operation id) kept in flat arrays in
memory; counts are taken in the same wrappers.  Nothing in the program is
edited: ``Tracer.restore`` puts every original name back.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Callable

import numpy as np

from womops import dynamics, equilibrium, experiments, myopic

from workloads import oracle_grid_points


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.enabled = True
        self._stack: list[int] = []
        self._op = -1
        self._originals: list[tuple[ModuleType, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, kind: int) -> int:
        index = len(self.start)
        self.kind.append(kind)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; its spans share its id."""
        self._op += 1
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, module: ModuleType, attr: str, name: str,
             on_result: Callable[..., None] | None = None) -> None:
        """Record a span for every call made through ``module.attr``."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        kind = self._id(name)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        self._originals.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    @contextmanager
    def paused(self):
        """Calls made inside (the checks) record no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total (inclusive) and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children, so nested wrapped calls are not counted twice.
        """
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        n = len(self.names)
        calls = np.bincount(kind, minlength=n)
        total = np.bincount(kind, weights=dur, minlength=n)
        own = np.bincount(kind, weights=dur - child, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write every span (npz) and the per-name summary (json)."""
        np.savez(path, names=np.array(self.names),
                 kind=np.frombuffer(self.kind, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
        with open(path + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": self.summary(), "counts": dict(self.counts),
                       "absent": self.absent}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _grid_points(result, params, lambda_p, grid) -> float:
    return float(oracle_grid_points(params.tau,
                                    grid.resolve_t_max(params, lambda_p),
                                    grid.step))


def _file_bytes(paths) -> float:
    return float(sum(os.path.getsize(p) for p in paths))


# Span names of the wrapped boundaries.
SOLVE = "equilibrium.solve_equilibrium"
GRID = "equilibrium._candidate_grid"
SELECT = "equilibrium._select_seeds"
POLISH = "equilibrium.minimize"
RECOVER = "equilibrium.recoverability"
PERSISTS = ("experiments.persist", "experiments.persist_trace")
TRACE = "experiments.run_trace"
SIMULATE = "dynamics.simulate"
CLASSIFY = "dynamics._classify_sequence"
PREDICT = "dynamics.predict_long_run"
POLICY = "myopic.solve_policy"
ORACLE = "myopic.grid_search_policy"


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are taken at."""
    counts = tracer.counts

    def add(key: str, value: Callable[..., float]) -> Callable[..., None]:
        def hook(*args, **kwargs) -> None:
            counts[key] += value(*args, **kwargs)
        return hook

    def polish(res, *args, **kwargs) -> None:
        counts["polish_nfev"] += res.nfev
        counts["polish_unconverged"] += 0 if res.success else 1

    iterations = add("iterations", lambda trace, *a, **k: len(trace.points) - 1)
    written = add("bytes_written", lambda paths, *a, **k: _file_bytes(paths))
    wrap = tracer.wrap
    # Public functions, where the benchmark or the layer above looks them up.
    wrap(equilibrium, "solve_equilibrium", SOLVE)
    wrap(equilibrium, "recoverability", RECOVER)
    wrap(equilibrium, "simulate", SIMULATE, iterations)
    wrap(experiments, "persist", PERSISTS[0], written)
    wrap(experiments, "persist_trace", PERSISTS[1], written)
    wrap(experiments, "run_trace", TRACE)
    wrap(dynamics, "simulate", SIMULATE, iterations)
    wrap(dynamics, "predict_long_run", PREDICT)
    wrap(myopic, "solve_policy", POLICY)
    wrap(myopic, "grid_search_policy", ORACLE, add("oracle_points", _grid_points))
    # Internal boundaries, as the calling module looks them up.
    wrap(equilibrium, "_candidate_grid", GRID,
         add("grid_points", lambda out, *a, **k: len(out[-1])))
    wrap(equilibrium, "_select_seeds", SELECT,
         add("seeds", lambda seeds, *a, **k: len(seeds)))
    wrap(equilibrium, "minimize", POLISH, polish)
    wrap(dynamics, "solve_policy", POLICY)
    wrap(dynamics, "_classify_sequence", CLASSIFY)

def layer_metrics(tracer: Tracer, ops: int,
                  rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run as name -> (value, unit).

    Per-call figures average over every call in the run; a layer that does
    not run on the workload reports 0.  A metric whose spans could not be
    wrapped (the name is gone from the program) is left out.
    """
    spans = tracer.summary()
    counts = tracer.counts

    def calls(*names: str) -> int:
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def total(*names: str) -> float:
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    def ms_per_call(*names: str) -> float:
        return 1e3 * per(total(*names), calls(*names))

    table = (  # name, unit, spans it needs, value
        ("equilibrium.solve_ms", "ms/call", (SOLVE,), ms_per_call(SOLVE)),
        ("equilibrium.grid_ms", "ms/call", (GRID,), ms_per_call(GRID)),
        ("equilibrium.grid_points", "count/call", (GRID,),
         per(counts["grid_points"], calls(GRID))),
        ("equilibrium.select_ms", "ms/call", (SELECT,), ms_per_call(SELECT)),
        ("equilibrium.seeds", "count/call", (SELECT,),
         per(counts["seeds"], calls(SELECT))),
        ("equilibrium.polish_ms", "ms/polish", (POLISH,), ms_per_call(POLISH)),
        ("equilibrium.polish_nfev", "evals/solve", (POLISH, SOLVE),
         per(counts["polish_nfev"], calls(SOLVE))),
        ("equilibrium.polish_unconverged", "count", (POLISH,),
         counts["polish_unconverged"]),
        ("equilibrium.recoverability_ms", "ms/call", (RECOVER,),
         ms_per_call(RECOVER)),
        ("experiments.persist_ms", "ms/call", PERSISTS, ms_per_call(*PERSISTS)),
        ("experiments.bytes_written", "bytes/round", PERSISTS,
         per(counts["bytes_written"], rounds)),
        ("experiments.trace_ms", "ms/call", (TRACE,), ms_per_call(TRACE)),
        ("dynamics.simulate_ms", "ms/call", (SIMULATE,), ms_per_call(SIMULATE)),
        ("dynamics.iterations", "count/call", (SIMULATE,),
         per(counts["iterations"], calls(SIMULATE))),
        ("dynamics.classify_ms", "ms/simulate", (CLASSIFY, SIMULATE),
         1e3 * per(total(CLASSIFY), calls(SIMULATE))),
        ("dynamics.predict_us", "us/call", (PREDICT,),
         1e3 * ms_per_call(PREDICT)),
        ("myopic.solve_policy_us", "us/call", (POLICY,),
         1e3 * ms_per_call(POLICY)),
        ("myopic.solve_policy_calls", "calls/op", (POLICY,),
         per(calls(POLICY), ops)),
        ("myopic.oracle_ms", "ms/call", (ORACLE,), ms_per_call(ORACLE)),
        ("myopic.oracle_points", "count/call", (ORACLE,),
         per(counts["oracle_points"], calls(ORACLE))),
    )
    return {name: (value, unit) for name, unit, needs, value in table
            if not any(n in tracer.absent for n in needs)}
