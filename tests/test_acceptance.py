"""Acceptance suite: one test per release criterion, stated tolerances.

Each criterion prints one ``[PASS]/[FAIL]`` line (visible with ``pytest -s``
or in the captured-output sections of ``pytest -rA``).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from womops import (MDT, CustomerResponse, FeeFamily, FeeModel, GridSpec,
                    LongRunKind, MarketParams, EquilibriumProblem,
                    grid_search_policy, potential_market, predict_long_run,
                    recoverability, simulate, solve_equilibrium, solve_policy)
from womops.cli import main as cli_main
from womops.experiments import (ExperimentConfig, TableId, TraceId,
                                build_problem, cyclic_vs_stationary,
                                run_table, run_trace, _table_setup)
from womops.reference import T7_TRACE, TABLE_ROWS

LIN = FeeModel(FeeFamily.LINEAR, 100, 1, 5)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def market(tau, K=2000.0, r=8.0):
    return MarketParams(r=r, K=K, h=4, tau=tau, lambda_r=50, M=30,
                        f_min=10, f_max=100)


@pytest.fixture(scope="module")
def t3_run():
    config = ExperimentConfig()
    start = time.perf_counter()
    rows = run_table(config, TableId.T3)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_table3_reproduction(t3_run):
    rows, elapsed = t3_run
    with criterion("criterion 1: T3 optima within stated tolerances, "
                   f"{elapsed:.1f}s for all rows"):
        ref = TABLE_ROWS["T3"]
        assert len(rows) == 10
        for row in rows:
            t1e, t2e, t3e, fe, lame, pie, _ = ref[(row.tau, row.c2, row.K, row.r)]
            assert abs(row.t1 - t1e) <= 0.02
            assert abs(row.t2 - t2e) <= 0.02
            assert abs(row.t3 - t3e) <= 0.02
            assert abs(row.F - fe) <= 0.5
            assert abs(row.lambda_p - lame) <= 0.5
            assert abs(row.profit - pie) <= 1.0
        assert elapsed < 60.0


def test_criterion_2_long_run_regimes():
    with criterion("criterion 2: long-run regime checks (converge / cycle / "
                   "one-step potential)"):
        p = market(tau=2.0)
        # (a) c2 = 1 converges near the reference terminal value within 15
        # iterations.
        limit = 450 * (250 / 450) ** (1 / 3)
        trace = simulate(p, LIN, CustomerResponse(1), MDT, 10,
                         seed_lambda_p=450.0, max_iters=15, tol=1e-9,
                         min_iters=15)
        lams = [pt.lambda_p for pt in trace.points]
        assert any(abs(lam - limit) <= 0.1 and abs(lam - 370.00) <= 0.1
                   for lam in lams[:16])
        # (b) c2 = 3 settles into the (450.00, 186.34) cycle.
        trace3 = simulate(p, LIN, CustomerResponse(3), MDT, 10,
                          seed_lambda_p=450.0, max_iters=50, tol=1e-4)
        assert trace3.classification.kind is LongRunKind.CYCLE2
        high, low = trace3.classification.values
        assert abs(high - 450.00) <= 0.02
        assert abs(low - 186.34) <= 0.02
        # (c) potential under the demand threshold is reached in one step.
        for tau, fee_model, fee, seed in ((1.0, LIN, 10.0, 37.0),
                                          (1.0, LIN, 10.0, 450.0),
                                          (1.2, LIN, 55.0, 0.0)):
            pc = market(tau=tau)
            c1 = potential_market(fee_model, fee)
            assert c1 <= pc.demand_threshold
            tr = simulate(pc, fee_model, CustomerResponse(2), MDT, fee,
                          seed_lambda_p=seed, max_iters=10, tol=1e-6)
            assert tr.points[1].lambda_p == pytest.approx(c1, abs=1e-9)
            assert tr.classification.kind is LongRunKind.CONVERGED_TO_POTENTIAL


def test_criterion_3_reference_trace():
    with criterion("criterion 3: 11-iteration trace matches (lambda 0.02, "
                   "t3 0.01)"):
        trace = run_trace(ExperimentConfig(), TraceId.T7)
        assert len(trace.points) == 11
        for pt, lam, t3 in zip(trace.points, T7_TRACE["lambda_p"],
                               T7_TRACE["t3"]):
            assert abs(pt.lambda_p - lam) <= 0.02
            assert abs(pt.policy.t3 - t3) <= 0.01


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    draws = 200
    with criterion(f"criterion 4: closed form vs exhaustive grid on {draws} "
                   "random instances"):
        def log_uniform(lo, hi):
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

        for _ in range(draws):
            p = market(tau=log_uniform(1, 7), K=log_uniform(2000, 4000),
                       r=log_uniform(8, 48))
            lam = log_uniform(30, 500)
            sol = solve_policy(p, lam)
            # Structural invariants hold exactly.
            assert not (sol.policy.t1 == 0) or sol.policy.t2 == 0
            assert not (sol.policy.t3 < p.tau) or sol.policy.t1 == 0
            assert sol.kkt_residual <= 1e-6
            grid = grid_search_policy(p, lam, GridSpec(step=0.005))
            assert sol.profit >= grid.profit - 0.05 * max(1.0, abs(sol.profit))
            assert grid.profit <= sol.profit + 1e-9


def test_criterion_5_proposition_suite():
    with criterion("criterion 5: monotone realized time, antitone profit, "
                   "long-run demand bound pattern"):
        taus = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
        resp = CustomerResponse(1)
        sols = {}
        for tau in taus:
            prob = EquilibriumProblem(market(tau), LIN, resp, MDT)
            sols[tau] = solve_equilibrium(prob)
        interior = [(tau, s) for tau, s in sols.items()
                    if s.policy.t3 < tau - 1e-6]
        assert len(interior) >= 5
        t3s = [s.policy.t3 for _, s in interior]
        profits = [s.profit for _, s in interior]
        assert all(a <= b + 1e-6 for a, b in zip(t3s, t3s[1:]))
        assert all(a >= b - 1e-6 for a, b in zip(profits, profits[1:]))
        # Long-run demand vs equilibrium demand, both threshold regimes.
        for tau in taus + [1.0, 1.2]:
            p = market(tau)
            sol = sols.get(tau) or solve_equilibrium(
                EquilibriumProblem(p, LIN, resp, MDT))
            c1 = potential_market(LIN, sol.fee)
            pred = predict_long_run(p, LIN, resp, MDT, sol.fee)
            lam_bar = pred.values[0]
            if c1 <= p.demand_threshold:
                assert abs(lam_bar - sol.lambda_p) <= 1e-6
            else:
                want = c1 * (2 * p.K / (p.h * c1 * p.tau ** 2)) ** (1 / 3)
                assert abs(lam_bar - want) <= 1e-9 * max(1.0, want)
                assert lam_bar <= sol.lambda_p + 1e-6


def test_criterion_6_recoverability_labels(t3_run):
    rows, _ = t3_run
    with criterion("criterion 6: fee-only recovery labels match on all rows; "
                   "29% long-run shortfall at (tau=2, c2=1)"):
        ref = TABLE_ROWS["T3"]
        for row in rows:
            assert row.no_wom_decision == ref[(row.tau, row.c2, row.K, row.r)][6]
        prob = EquilibriumProblem(market(2.0), LIN, CustomerResponse(1), MDT)
        rep = recoverability(prob, solve_equilibrium(prob))
        assert rep.shortfall_vs_initial is not None
        assert abs(rep.shortfall_vs_initial - 0.29) <= 0.02


def test_criterion_7_service_frequency_structure():
    with criterion("criterion 7: frequency-signal optimum sheds demand "
                   "without fast service at c2=0.2, adds fast service at "
                   "c2=0.1"):
        from womops import NPS
        base = dict(K=3000.0, r=16.0)
        prob_02 = EquilibriumProblem(market(1.0, **base), LIN,
                                     CustomerResponse(0.2), NPS)
        sol_02 = solve_equilibrium(prob_02)
        assert sol_02.policy.t1 == 0.0
        assert sol_02.policy.t2 > 0.0
        assert abs(sol_02.policy.t2 - 0.57) <= 0.05
        prob_01 = EquilibriumProblem(market(1.0, **base), LIN,
                                     CustomerResponse(0.1), NPS)
        sol_01 = solve_equilibrium(prob_01)
        assert sol_01.policy.t1 > 0.0


def test_criterion_8_cyclic_beats_stationary():
    with criterion("criterion 8: cyclic long-run average beats the "
                   "stationary optimum at the starred point"):
        config = ExperimentConfig()
        prob = build_problem(config, _table_setup(TableId.T4), 5.0, 3.0,
                             1000.0, 8.0)
        rep = cyclic_vs_stationary(prob, config.search)
        assert rep.cycle_detected
        assert abs(rep.stationary_profit - 295.74) <= 0.05
        assert rep.long_run_average_profit > 295.74
        assert rep.margin == pytest.approx(
            rep.long_run_average_profit - rep.stationary_profit, rel=1e-12)
        print(f"  cyclic average {rep.long_run_average_profit:.2f} vs "
              f"stationary {rep.stationary_profit:.2f} "
              f"(margin {rep.margin:+.2f})")


#: sha256 of ``womops reproduce --table T3/T7/T8`` output (Python 3.11,
#: NumPy 2.4, x86-64 Linux).  A change that alters a reproduced digit or a
#: manifest field has to update these on purpose.
REPRODUCE_SHA256 = {
    "T3.csv": "7013fc1a9c668f71a659466955615d4d796054e1edb400a9a6b8ce37cac5b38e",
    "T3_manifest.json":
        "1eb4ce39df62e901cbecb7a06d2bad0ce6a014c10c8920c9a24941f5eaee3968",
    "T7.csv": "b2e9c70bc62ed429e6bf619648e264cc6a302c7957a7edc2401fbe1de40d5fbf",
    "T7_manifest.json":
        "e4d367931f19b730148dc63fba8c834f854a1a5067ec1285164a89b70f202f7f",
    "T8.csv": "e7f901ce76677052c17d5d93a2be4dec2b0f6f757e3ece6df0f54b8672f6bb0b",
    "T8_manifest.json":
        "aa02c031a9bfbe5ce2f9466fa5b78521266e12f1eb5d419098c114e54c468ab1",
}


def test_criterion_9_reproduction_determinism(tmp_path, capsys):
    with criterion("criterion 9: byte-identical CSV and manifest across "
                   "reruns"):
        def run(out):
            for table in ("T3", "T7", "T8"):
                assert cli_main(["reproduce", "--table", table,
                                 "--out", out]) == 0
            return {name: hashlib.sha256(Path(out, name).read_bytes())
                    .hexdigest() for name in REPRODUCE_SHA256}

        first = run(str(tmp_path / "run1"))
        second = run(str(tmp_path / "run2"))
        capsys.readouterr()
        assert first == second
        assert first == REPRODUCE_SHA256
