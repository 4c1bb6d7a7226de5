"""The benchmark's checks accept right answers and reject wrong ones.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from womops import dynamics, experiments, myopic  # noqa: E402
from womops.domain import (CustomerResponse, FeeFamily, FeeModel,  # noqa: E402
                           SignalKind, SignalSpec)
from womops.dynamics import DynamicsTrace, LongRunClass, LongRunKind  # noqa: E402
from womops.reference import TABLE_ROWS, TRACES  # noqa: E402

LINEAR = FeeModel(FeeFamily.LINEAR, 100.0, 1.0, 5.0)


def solved_row(name: str, index: int, tmp_path):
    """Run one operation of a ``tables`` round on the given row."""
    tables = workloads.Tables(0, str(tmp_path))
    key = tables.setups[name].rows[index]
    op = tables._row_op(name, key, {})
    return op.run()


@pytest.fixture(scope="module")
def t3_row(tmp_path_factory):
    return solved_row("T3", 0, tmp_path_factory.mktemp("t3"))


def test_row_checks_pass_on_the_program_output(t3_row):
    row, problem, sol = t3_row
    assert checks.check_row(TABLE_ROWS["T3"], row, problem, sol) == []


@pytest.mark.parametrize("change, message", [
    ({"profit": 1.5}, "profit"),
    ({"t3": 0.05}, "t3"),
    ({"F": 1.0}, "F"),
])
def test_row_outside_tolerance_is_rejected(t3_row, change, message):
    row, problem, sol = t3_row
    bad = replace(row, **{k: getattr(row, k) + v for k, v in change.items()})
    problems = checks.check_row(TABLE_ROWS["T3"], bad, problem, sol)
    assert any(p.startswith(message) for p in problems)


def test_wrong_recoverability_label_is_rejected(t3_row):
    row, problem, sol = t3_row
    bad = replace(row, no_wom_decision="Cycles")
    assert any("label" in p for p in
               checks.check_row(TABLE_ROWS["T3"], bad, problem, sol))


def test_off_closed_form_t3_is_rejected(tmp_path):
    # (tau=5, c2=1): t3 < tau, so the cubic's root applies.
    row, problem, sol = solved_row("T3", 6, tmp_path)
    assert row.t3 < row.tau
    assert checks.check_row(TABLE_ROWS["T3"], row, problem, sol) == []
    shifted = replace(sol, policy=replace(sol.policy, t3=sol.policy.t3 + 1e-4))
    assert any("closed form" in p for p in
               checks.check_row(TABLE_ROWS["T3"], row, problem, shifted))


def _rows(name: str):
    signal, family = workloads.TABLE_SETUPS[name]
    return [experiments.ResultRow(
        tau=k[0], c2=k[1], K=k[2], r=k[3], M=30.0, signal=signal.value,
        fee_family=family.value, t1=v[0], t2=v[1], t3=v[2], F=v[3],
        lambda_p=v[4], profit=v[5], no_wom_decision=v[6],
        branch="numeric-boundary")
        for k, v in sorted(TABLE_ROWS[name].items())]


def test_persisted_files_checked_against_rows(tmp_path):
    config = experiments.ExperimentConfig(out_dir=str(tmp_path))
    rows = _rows("T3")
    paths = experiments.persist(rows, str(tmp_path), "T3", config)
    assert checks.check_table_files(*paths, "T3", rows,
                                    experiments.load_rows) == []
    moved = [replace(r, profit=r.profit + 0.01) for r in rows]
    assert checks.check_table_files(*paths, "T3", moved, experiments.load_rows)


def test_manifest_contradicting_its_rows_is_rejected(tmp_path):
    # Fault (b): the default configuration records MDT for an NPS table.
    config = experiments.ExperimentConfig(out_dir=str(tmp_path))
    rows = _rows("T5")
    paths = experiments.persist(rows, str(tmp_path), "T5", config)
    problems = checks.check_table_files(*paths, "T5", rows,
                                        experiments.load_rows)
    assert any("signal_kind 'MDT'" in p for p in problems)


@pytest.mark.parametrize("name", sorted(TRACES))
def test_published_traces_pass_and_shifted_ones_fail(name):
    trace = experiments.run_trace(experiments.ExperimentConfig(),
                                  experiments.TraceId[name])
    assert checks.check_trace(TRACES[name], name, trace) == []
    shifted = replace(trace, points=tuple(
        replace(p, lambda_p=p.lambda_p + 0.05) for p in trace.points))
    assert checks.check_trace(TRACES[name], name, shifted)


def _draw(tau: float, c2: float, tol: float, kind=SignalKind.MDT):
    return workloads.Draw(workloads._market(tau, 2000.0, 8.0), LINEAR,
                          CustomerResponse(c2), SignalSpec(kind), 10.0, tol)


def _simulate(d):
    trace = dynamics.simulate(d.params, d.fee_model, d.resp, d.spec, d.fee,
                              max_iters=1000, tol=d.tol)
    prediction = (dynamics.predict_long_run(d.params, d.fee_model, d.resp,
                                            d.spec, d.fee)
                  if d.spec.kind is SignalKind.MDT else None)
    return trace, prediction


@pytest.mark.parametrize("tau, c2", [(5.0, 1.0), (5.0, 1.7), (2.0, 3.0),
                                     (1.0, 1.0)])
def test_feedback_checks_pass_on_settled_trajectories(tau, c2):
    d = _draw(tau, c2, 1e-6)
    assert checks.check_feedback(d, *_simulate(d)) == []


def test_mislabelled_damped_trajectory_is_rejected():
    # Fault (a): the program reports cycle-2 (138.3934, 138.3916) here while
    # the trajectory converges to 138.3925.
    d = _draw(5.0, 1.9, 1e-4)
    trace, prediction = _simulate(d)
    assert trace.classification.kind is LongRunKind.CYCLE2
    problems = checks.check_feedback(d, trace, prediction)
    assert any("predicted converged-interior" in p for p in problems)


def test_fabricated_degenerate_cycle_is_rejected():
    d = _draw(1.0, 0.5, 1e-4, SignalKind.NPS)
    trace, _ = _simulate(d)
    fake = DynamicsTrace(trace.points, LongRunClass(
        LongRunKind.CYCLE2, (138.3926, 138.3925), 1e-4))
    problems = checks.check_feedback(d, fake, None)
    assert any("degenerate two-point cycle" in p for p in problems)


def test_limit_that_is_not_a_fixed_point_is_rejected():
    d = _draw(1.0, 0.5, 1e-4, SignalKind.NPS)
    trace, _ = _simulate(d)
    limit = trace.classification.values[0]
    fake = DynamicsTrace(trace.points, LongRunClass(
        LongRunKind.CONVERGED_INTERIOR, (limit * 0.99,), 1e-4))
    assert any("moves by" in p for p in checks.check_feedback(d, fake, None))


@pytest.fixture(scope="module")
def oracle_instance():
    params = workloads._market(3.0, 3000.0, 20.0)
    lam = 100.0
    closed = myopic.solve_policy(params, lam)
    grid = myopic.grid_search_policy(params, lam, myopic.GridSpec(step=0.005))
    return params, lam, closed, grid


def test_oracle_checks_pass_on_the_program_output(oracle_instance):
    assert checks.check_oracle(*oracle_instance[:2], 0.005,
                               *oracle_instance[2:]) == []


def test_oracle_result_beating_the_closed_form_is_rejected(oracle_instance):
    params, lam, closed, grid = oracle_instance
    better = replace(grid, profit=closed.profit + 1e-6)
    problems = checks.check_oracle(params, lam, 0.005, closed, better)
    assert any("beats the closed form" in p for p in problems)


def test_closed_form_far_above_the_grid_is_rejected(oracle_instance):
    params, lam, closed, grid = oracle_instance
    # A grid point worth much less than the optimum, reported honestly.
    poor = replace(grid.policy, t3=grid.policy.t3 / 2)
    worse = replace(grid, policy=poor, profit=checks.profit_rate(
        params, poor.t1, poor.t2, poor.t3, lam))
    problems = checks.check_oracle(params, lam, 0.005, closed, worse)
    assert any("O(step) bound" in p for p in problems)


def test_structural_invariant_violation_is_rejected(oracle_instance):
    params, lam, closed, grid = oracle_instance
    bad = replace(closed, policy=replace(closed.policy, t2=0.1))
    assert checks.check_oracle(params, lam, 0.005, bad, grid)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_minimum_rounds_leave_ten_latencies_beyond_the_tail(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    n = workload.min_rounds * len(workload.round(0))
    assert n - run.tail_rank(n, workload.tail_pct) >= 10
