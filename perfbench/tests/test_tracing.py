"""The traced run records spans at the layer boundaries and puts them back.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from womops import dynamics  # noqa: E402


def _simulate(d):
    return dynamics.simulate(d.params, d.fee_model, d.resp, d.spec, d.fee,
                             max_iters=1000, tol=d.tol)


def test_spans_and_counts_of_one_simulation():
    originals = (dynamics.simulate, dynamics.solve_policy,
                 dynamics._classify_sequence)
    draw = workloads.FAULT_A_DRAWS[0]
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        with tracer.operation("op.simulate"):
            trace = _simulate(draw)
        with tracer.paused():
            _simulate(draw)
    finally:
        tracer.restore()
    assert (dynamics.simulate, dynamics.solve_policy,
            dynamics._classify_sequence) == originals

    steps = len(trace.points)
    spans = tracer.summary()
    assert spans["dynamics.simulate"]["calls"] == 1
    assert spans["myopic.solve_policy"]["calls"] == steps
    assert spans["dynamics._classify_sequence"]["calls"] == steps - 1
    assert spans["dynamics.predict_long_run"]["calls"] == 1
    sim = spans["dynamics.simulate"]
    assert 0 < sim["self_s"] < sim["total_s"]
    assert spans["op.simulate"]["total_s"] >= sim["total_s"]

    metrics = tracing.layer_metrics(tracer, ops=1, rounds=1)
    assert len(metrics) == 20
    assert metrics["dynamics.iterations"] == (steps - 1, "count/call")
    assert metrics["myopic.solve_policy_calls"] == (steps, "calls/op")
    assert metrics["equilibrium.solve_ms"] == (0.0, "ms/call")


def test_a_missing_name_leaves_its_metrics_out(monkeypatch):
    monkeypatch.delattr(dynamics, "_classify_sequence")
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    tracer.restore()
    assert tracer.absent == ["dynamics._classify_sequence"]
    metrics = tracing.layer_metrics(tracer, ops=1, rounds=1)
    assert "dynamics.classify_ms" not in metrics
    assert "dynamics.simulate_ms" in metrics
