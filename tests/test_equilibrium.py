from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest

from womops import (MDT, NPS, CustomerResponse, FeeFamily, FeeModel,
                    FeeRegime, MarketParams, RecoveryClass, RegimeViolation,
                    SignalKind, SignalSpec,
                    EquilibriumProblem, UnsupportedSignal, check_structure,
                    best_fee, closed_form_t3, equilibrium_residual,
                    profit_rate_with_fees, recoverability, respond, signal,
                    solve_equilibrium)
from womops import dynamics, equilibrium
from womops.domain import cycle_profit, signal_value
from womops.equilibrium import (MAX_GRID_POINTS, MAX_SEEDS, SearchSpec,
                                _objective, _seeds, search_cap)
from womops.errors import InvalidParams
from womops.experiments import (ExperimentConfig, TableId, _table_setup,
                                build_problem)

LIN = FeeModel(FeeFamily.LINEAR, 100, 1, 5)
LOG = FeeModel(FeeFamily.LOGARITHMIC, 20, 101, 5)


def substituted_profit(prob, t1, t2, t3, F):
    """Fee-inclusive profit with lambda_p = R(theta), from the domain formulas.

    Takes floats or arrays; N(F) is taken once per distinct fee, as the
    candidate grid takes it, so a grid gives the grid's bits.
    """
    p, fm = prob.params, prob.fee_model
    F = np.asarray(F, dtype=float)
    fees, where = np.unique(F, return_inverse=True)
    c1 = np.array([fm.members(f) for f in fees.tolist()]) * fm.delta
    T = t1 + t2 + t3
    lam = (c1[where].reshape(F.shape)
           * signal_value(prob.signal_spec, t2, t3, T, p.tau) ** prob.resp.c2)
    return cycle_profit(p, lam, F / (fm.delta * p.M), t1, t3, T)


def problem(tau, c2, K=2000.0, r=8.0, fee_model=LIN, spec=MDT, M=30.0,
            f_min=10.0, f_max=100.0, lambda_r=50.0):
    params = MarketParams(r=r, K=K, h=4, tau=tau, lambda_r=lambda_r, M=M,
                          f_min=f_min, f_max=f_max)
    return EquilibriumProblem(params, fee_model, CustomerResponse(c2), spec)


class TestSolve:
    def test_tau_binding_row(self):
        sol = solve_equilibrium(problem(1.5, 1))
        assert (sol.policy.t1, sol.policy.t2) == (0.0, 0.0)
        assert sol.policy.t3 == 1.5
        assert sol.fee == pytest.approx(10.0, abs=1e-6)
        assert sol.lambda_p == pytest.approx(450.0, abs=1e-6)
        assert sol.profit == pytest.approx(1346.67, abs=0.01)

    def test_tau_slack_row(self):
        sol = solve_equilibrium(problem(5.0, 1))
        assert sol.policy.t1 == 0.0 and sol.policy.t2 == 0.0
        assert sol.policy.t3 == pytest.approx(2.7509, abs=2e-3)
        assert sol.lambda_p == pytest.approx(247.58, abs=0.1)
        assert sol.profit == pytest.approx(307.98, abs=0.05)

    def test_premium_priced_out_row(self):
        sol = solve_equilibrium(problem(5.0, 3))
        assert sol.fee == 100.0
        assert sol.lambda_p == 0.0
        assert sol.policy.t1 == pytest.approx(1.7082, abs=2e-3)
        assert sol.policy.t3 == 5.0
        assert sol.profit == pytest.approx(58.36, abs=0.02)

    def test_snapped_bounds_are_floats(self):
        # Integer bounds must not leak into the solution as Python ints.
        params = MarketParams(r=8, K=2000, h=4, tau=2, lambda_r=50, M=30,
                              f_min=10, f_max=100)
        sol = solve_equilibrium(
            EquilibriumProblem(params, LIN, CustomerResponse(1), MDT),
            SearchSpec(n_time=12, top_n=3))
        assert (sol.policy.t3, sol.fee) == (2.0, 10.0)
        assert type(sol.policy.t3) is float and type(sol.fee) is float

    def test_interior_fee_row(self):
        sol = solve_equilibrium(problem(5.0, 3, K=1000.0, fee_model=LOG))
        assert sol.fee == pytest.approx(45.21, abs=0.05)
        assert sol.lambda_p == pytest.approx(126.77, abs=0.1)
        assert sol.profit == pytest.approx(295.74, abs=0.02)
        assert sol.branch.value == "numeric-interior"

    def test_equilibrium_residual_tight(self):
        for prob in (problem(2.0, 1), problem(5.0, 3, K=1000.0, fee_model=LOG)):
            sol = solve_equilibrium(prob)
            assert equilibrium_residual(prob, sol) <= 1e-6 * max(1.0, sol.lambda_p)

    def test_pinned_fee_matches_reduced_brute_force(self):
        prob = problem(5.0, 1, f_min=10.0, f_max=10.0)
        sol = solve_equilibrium(prob)
        assert sol.fee == 10.0
        assert sol.branch.value == "numeric-boundary"
        # 3-variable brute force with the fee pinned.
        t1, t3, t2 = np.meshgrid(np.linspace(0, 3, 61),
                                 np.linspace(0.05, 5, 100),
                                 np.linspace(0, 3, 61), indexing="ij")
        best = float(np.max(substituted_profit(prob, t1, t2, t3, 10.0)))
        assert sol.profit >= best - 1e-2

    def test_unprofitable_corner_pins_cycle_to_search_cap(self):
        # K above r*lam_r*tau + lam_r*r^2/(2h) makes even the best cycle
        # lose money, so the priced-out profit climbs toward zero as the
        # cycle stretches; the solver must stay inside its box and keep
        # the fast phase at the margin bound r/h.
        from womops import search_cap
        prob = problem(7.0, 1, K=4000.0)
        sol = solve_equilibrium(prob)
        assert sol.lambda_p == 0.0
        assert sol.policy.t1 == pytest.approx(prob.params.r / prob.params.h,
                                              abs=1e-6)
        assert sol.policy.cycle_length == pytest.approx(search_cap(prob),
                                                         abs=1e-6)
        assert check_structure(prob, sol).ok

    def test_losing_premium_market_drives_t3_toward_zero(self):
        # Members grow with the fee (a = 0, b < 0), but at long cycles a
        # premium order loses money, and there is no regular demand: the
        # best cycle is as long as the search allows, with t3 -> 0 and the
        # profit tending to -K/cap.  A polish that runs into t3 = 0 has to
        # turn back into the box, not end there and be dropped.
        prob = problem(6.73, 1, K=3155.0, r=14.0, M=300.0, f_max=30.0,
                       lambda_r=0.0, fee_model=FeeModel(FeeFamily.LINEAR, 0,
                                                        -0.5, 5))
        sol = solve_equilibrium(prob)
        assert 0.0 < sol.policy.t3 < 1e-6
        assert sol.profit == pytest.approx(-prob.params.K / search_cap(prob),
                                           rel=1e-6)

    def test_insensitive_customers_capture_whole_market(self):
        sol = solve_equilibrium(problem(2.0, 0))
        assert sol.lambda_p == pytest.approx(450.0, abs=1e-6)
        assert sol.fee == pytest.approx(10.0, abs=1e-6)

    def test_deterministic_across_calls(self):
        a = solve_equilibrium(problem(5.0, 3, K=1000.0, fee_model=LOG))
        b = solve_equilibrium(problem(5.0, 3, K=1000.0, fee_model=LOG))
        assert (a.policy, a.fee, a.lambda_p, a.profit) == \
            (b.policy, b.fee, b.lambda_p, b.profit)

    def test_weighted_signal_flows_through_numeric_path(self):
        from womops import SignalKind, SignalSpec
        spec = SignalSpec(SignalKind.WEIGHTED,
                          ((SignalKind.MDT, 0.6), (SignalKind.NPS, 0.4)))
        sol = solve_equilibrium(problem(2.0, 1, spec=spec))
        prob = problem(2.0, 1, spec=spec)
        assert equilibrium_residual(prob, sol) <= 1e-6
        assert 0.0 <= sol.lambda_p <= 450.0 + 1e-9

    def test_kernel_matches_scalar_evaluators(self):
        prob = problem(2.0, 1.7)
        rng = np.random.default_rng(7)
        for _ in range(50):
            t1, t2 = rng.uniform(0, 2, 2)
            t3 = rng.uniform(0.05, 2.0)
            fee = rng.uniform(10, 100)
            pol_profit = float(substituted_profit(prob, t1, t2, t3, fee))
            from womops import ShipmentPolicy
            pol = ShipmentPolicy(t1, t2, t3)
            theta = signal(MDT, pol, 2.0)
            lam = respond(prob.resp, LIN, fee, theta)
            want = profit_rate_with_fees(prob.params, LIN, pol, fee, lam)
            assert pol_profit == pytest.approx(want, rel=1e-12, abs=1e-9)
            # The objective takes the fee at F*(T).
            fee = best_fee(prob)(t1 + t2 + t3)
            lam = respond(prob.resp, LIN, fee, theta)
            want = profit_rate_with_fees(prob.params, LIN, pol, fee, lam)
            assert -_objective(prob)(t1, t2, t3) == \
                pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_fee_box_outside_the_family_domain_rejected(self):
        # The logarithmic family is defined for F < b = 101 only.
        with pytest.raises(InvalidParams, match="fee bound 150"):
            problem(2.0, 1, fee_model=LOG, f_max=150.0)


def fee_values(prob, fees, T):
    """N(F) (r - hT/2 + F/(delta M)): the fee-dependent profit factor."""
    p, fm = prob.params, prob.fee_model
    if fm.family is FeeFamily.LINEAR:
        members = np.maximum(fm.a - fm.b * fees, 0.0)
    else:
        members = fm.a * np.log(np.maximum(fm.b - fees, 1.0))
    return members * (p.r - p.h * T / 2.0 + fees / (fm.delta * p.M))


class TestBestFee:
    """F*(T) against a dense scan of the fee box."""

    FAMILIES = [FeeModel(FeeFamily.LINEAR, 100, 1, 5),
                FeeModel(FeeFamily.LINEAR, 300, 2, 5),
                FeeModel(FeeFamily.LINEAR, 100, 0, 5),
                FeeModel(FeeFamily.LINEAR, 0, 0, 5),
                FeeModel(FeeFamily.LINEAR, 0, -0.5, 5),
                FeeModel(FeeFamily.LINEAR, 50, -0.5, 5),
                FeeModel(FeeFamily.LOGARITHMIC, 20, 101, 5),
                FeeModel(FeeFamily.LOGARITHMIC, 0, 101, 5)]

    @pytest.mark.parametrize("fee_model", FAMILIES,
                             ids=lambda fm: f"{fm.family.value}-{fm.a}-{fm.b}")
    @pytest.mark.parametrize("f_min, f_max", [(10.0, 100.0), (40.0, 40.0)])
    def test_beats_a_dense_scan(self, fee_model, f_min, f_max):
        # tau = 2 puts the search cap at 6, past T = 4.33 where the
        # logarithmic family's A = delta M (r - hT/2) + b falls to 1.
        prob = problem(2.0, 1, fee_model=fee_model, f_min=f_min, f_max=f_max)
        fee_of = best_fee(prob)
        fees = np.linspace(f_min, f_max, 10 ** 5)
        for T in np.linspace(1e-3, search_cap(prob), 41).tolist():
            fee = fee_of(T)
            assert f_min <= fee <= f_max
            scan = fee_values(prob, fees, T)
            best = float(fee_values(prob, np.array([fee]), T)[0])
            scale = max(1.0, float(np.max(np.abs(scan))))
            assert best >= float(np.max(scan)) - 1e-9 * scale, T
            if np.all(scan == scan[0]):
                assert fee == f_min

    @pytest.mark.parametrize("r, M", [(1e300, 30.0), (1e306, 1e6)])
    def test_huge_logarithmic_root_is_f_min(self, r, M):
        # A = 1.5e302 runs the Newton iteration on a huge root; A = 5e312
        # overflows to inf.  Either way F* is f_min, never NaN.
        assert best_fee(problem(2.0, 1, r=r, M=M, fee_model=LOG))(1.0) == 10.0


class TestClosedForms:
    def test_boundary_fee_cubic_against_numeric(self):
        prob = problem(5.0, 1)
        t3 = closed_form_t3(prob, FeeRegime.BOUNDARY, fee=10.0)
        assert t3 == pytest.approx(2.7509, abs=5e-4)
        sol = solve_equilibrium(prob)
        assert abs(sol.policy.t3 - t3) <= 1e-3
        # 1-d brute force over t3 of the substituted objective.
        grid = np.linspace(0.05, 5.0, 20000)
        profits = substituted_profit(prob, 0.0, 0.0, grid, 10.0)
        assert grid[int(np.argmax(profits))] == pytest.approx(t3, abs=1e-3)

    def test_boundary_fee_monotone_in_declared_time(self):
        t5 = closed_form_t3(problem(5.0, 1), FeeRegime.BOUNDARY, fee=10.0)
        t6 = closed_form_t3(problem(6.0, 1), FeeRegime.BOUNDARY, fee=10.0)
        assert t6 > t5
        assert t6 == pytest.approx(2.8420, abs=5e-4)

    def test_boundary_regime_violation_when_tau_binds(self):
        with pytest.raises(RegimeViolation):
            closed_form_t3(problem(1.5, 1), FeeRegime.BOUNDARY, fee=10.0)

    def test_interior_fee_quartic_matches_brute_force_optimum(self):
        # M = 3 moves the joint stationary point inside the fee box.
        prob = problem(5.0, 1, M=3.0)
        t3 = closed_form_t3(prob, FeeRegime.INTERIOR)
        fee = best_fee(prob)(t3)
        assert t3 == pytest.approx(3.41655, abs=1e-4)
        assert fee == pytest.approx(41.2482, abs=1e-3)
        sol = solve_equilibrium(prob)
        assert abs(sol.policy.t3 - t3) <= 1e-3
        assert abs(sol.fee - fee) <= 1e-3
        assert abs(sol.profit - -(-1) * float(substituted_profit(prob, 0, 0, t3, fee))) <= 1e-2

    def test_interior_fee_regime_violation_when_fee_hits_bound(self):
        with pytest.raises(RegimeViolation):
            closed_form_t3(problem(5.0, 1), FeeRegime.INTERIOR)

    @pytest.mark.parametrize("b", [0.0, -0.5])
    def test_interior_fee_without_a_quadratic_in_the_fee(self, b):
        # With b <= 0 the best fee is always a bound.
        fee_model = FeeModel(FeeFamily.LINEAR, 100, b, 5)
        with pytest.raises(RegimeViolation):
            closed_form_t3(problem(5.0, 1, fee_model=fee_model),
                           FeeRegime.INTERIOR)

    def test_unsupported_inputs(self):
        with pytest.raises(UnsupportedSignal):
            closed_form_t3(problem(5.0, 1, spec=NPS), FeeRegime.BOUNDARY, fee=10.0)
        with pytest.raises(UnsupportedSignal):
            closed_form_t3(problem(5.0, 3), FeeRegime.BOUNDARY, fee=10.0)
        with pytest.raises(UnsupportedSignal):
            closed_form_t3(problem(5.0, 1, fee_model=LOG), FeeRegime.INTERIOR)

    def test_boundary_regime_needs_the_fee(self):
        with pytest.raises(InvalidParams, match="pinned fee"):
            closed_form_t3(problem(5.0, 1), FeeRegime.BOUNDARY)

    def test_priced_out_fee_has_no_interior_t3(self):
        with pytest.raises(RegimeViolation):
            closed_form_t3(problem(5.0, 1), FeeRegime.BOUNDARY, fee=100.0)


class TestStructure:
    def test_mdt_solution_obeys_all(self):
        prob = problem(1.0, 1)
        sol = solve_equilibrium(prob)
        report = check_structure(prob, sol)
        assert report.ok and not report.findings
        assert sol.policy.t1 <= prob.params.r / prob.params.h + 1e-9

    def test_nps_lost_sales_without_fast_service_is_a_finding(self):
        prob = problem(1.0, 0.2, K=3000.0, r=16.0, spec=NPS)
        sol = solve_equilibrium(prob)
        assert sol.policy.t1 == 0.0 and sol.policy.t2 > 0.5
        report = check_structure(prob, sol)
        assert "no_phase2_without_phase1" in report.findings
        assert report.ok  # only the margin bound is required under NPS

    def test_margin_bound_holds_with_equality(self):
        from womops import EquilibriumSolution, Branch, ShipmentPolicy
        prob = problem(1.0, 1)
        r_over_h = prob.params.r / prob.params.h
        sol = EquilibriumSolution(ShipmentPolicy(r_over_h, 0.0, 1.0), 10.0,
                                  450.0, 0.0, Branch.NUMERIC_BOUNDARY)
        report = check_structure(prob, sol)
        assert "phase1_within_margin_bound" not in report.findings

    def test_required_finding_fails_the_report(self):
        from womops import EquilibriumSolution, Branch, ShipmentPolicy
        prob = problem(1.0, 1)
        sol = EquilibriumSolution(ShipmentPolicy(3.0, 0.0, 1.0), 10.0,
                                  450.0, 0.0, Branch.NUMERIC_BOUNDARY)
        report = check_structure(prob, sol)
        assert report.findings == ("phase1_within_margin_bound",)
        assert not report.ok


class TestRecoverability:
    def test_small_market_recovers_optimum(self):
        prob = problem(1.0, 1)
        sol = solve_equilibrium(prob)
        rep = recoverability(prob, sol)
        assert rep.kind is RecoveryClass.OPT_EQ

    def test_large_market_converges_elsewhere(self):
        prob = problem(2.0, 1)
        sol = solve_equilibrium(prob)
        rep = recoverability(prob, sol)
        assert rep.kind is RecoveryClass.NON_OPT_EQ
        assert rep.long_run_lambda == pytest.approx(370.0, abs=0.1)
        assert rep.shortfall_vs_initial == pytest.approx(0.294, abs=0.005)

    def test_one_long_run_prediction_per_run(self):
        prob = problem(2.0, 1)
        sol = solve_equilibrium(prob)
        code = dynamics.predict_long_run.__code__
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame.f_locals["fee"])

        # A profile hook counts the calls however the function is reached.
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            recoverability(prob, sol)
        finally:
            sys.setprofile(previous)
        assert calls == [sol.fee]

    def test_sensitive_market_cycles(self):
        prob = problem(2.0, 3)
        sol = solve_equilibrium(prob)
        rep = recoverability(prob, sol)
        assert rep.kind is RecoveryClass.CYCLES

    def test_priced_out_solution_recovers_trivially(self):
        prob = problem(5.0, 3)
        sol = solve_equilibrium(prob)
        assert sol.lambda_p == 0.0
        rep = recoverability(prob, sol)
        assert rep.kind is RecoveryClass.OPT_EQ


class TestMonotonicity:
    def test_realized_time_monotone_and_profit_antitone_in_tau(self):
        taus = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
        sols = [solve_equilibrium(problem(tau, 1)) for tau in taus]
        interior = [(tau, s) for tau, s in zip(taus, sols)
                    if s.policy.t3 < tau - 1e-6]
        assert len(interior) >= 5
        t3s = [s.policy.t3 for _, s in interior]
        profits = [s.profit for _, s in interior]
        assert all(a <= b + 1e-6 for a, b in zip(t3s, t3s[1:]))
        assert all(a >= b - 1e-6 for a, b in zip(profits, profits[1:]))

    def test_fixed_point_of_feedback_at_equilibrium(self):
        prob = problem(5.0, 1)
        sol = solve_equilibrium(prob)
        theta = signal(MDT, sol.policy, prob.params.tau)
        lam_back = respond(prob.resp, prob.fee_model, sol.fee, theta)
        assert lam_back == pytest.approx(sol.lambda_p, rel=1e-9)


def scaled_linear(prob, c):
    """``prob`` in money units c times larger: r, K, h and the fee bounds
    scale by c and the linear family's b by 1/c, so N(F) keeps its values
    at the scaled fees, and every profit scales by c."""
    p = prob.params
    params = dataclasses.replace(p, r=p.r * c, K=p.K * c, h=p.h * c,
                                 f_min=p.f_min * c, f_max=p.f_max * c)
    fee_model = dataclasses.replace(prob.fee_model, b=prob.fee_model.b / c)
    return dataclasses.replace(prob, params=params, fee_model=fee_model)


class TestLinearFamilyScaling:
    """Metamorphic: rescaling the money unit rescales F and the profit only."""

    # T3: slack declared time; priced out.  T5: both extra phases; the
    # row that moves most under c = 10.
    ROWS = [(TableId.T3, (5.0, 1.0, 2000.0, 8.0)),
            (TableId.T3, (6.0, 3.0, 2000.0, 8.0)),
            (TableId.T5, (1.0, 0.1, 3000.0, 16.0)),
            (TableId.T5, (1.0, 0.1, 3000.0, 48.0))]

    @pytest.mark.parametrize("table, key", ROWS)
    def test_scaled_rows(self, table, key):
        config = ExperimentConfig()
        prob = build_problem(config, _table_setup(table), *key)
        base = solve_equilibrium(prob, config.search)
        # A power of two scales every float exactly, so the search takes
        # the same steps.
        for c in (0.5, 2.0):
            sol = solve_equilibrium(scaled_linear(prob, c), config.search)
            assert sol.policy == base.policy
            assert sol.lambda_p == base.lambda_p
            assert (sol.fee, sol.profit) == (c * base.fee, c * base.profit)
        sol = solve_equilibrium(scaled_linear(prob, 10.0), config.search)
        T = base.policy.cycle_length
        for got, want in zip((sol.policy.t1, sol.policy.t2, sol.policy.t3),
                             (base.policy.t1, base.policy.t2, base.policy.t3)):
            assert got == pytest.approx(want, abs=1e-5 * T)
        assert sol.lambda_p == pytest.approx(base.lambda_p, rel=1e-5)
        assert sol.fee == pytest.approx(10.0 * base.fee, rel=1e-5)
        assert sol.profit == pytest.approx(10.0 * base.profit, rel=1e-5)


def reference_grid(prob, search):
    """The whole profiled grid, flattened, with its profits.

    Each point takes the fee F*(T) of its grid cycle length T.  A point
    whose t1 + t2 + t3 rounds above the search cap is outside the box.
    """
    p = prob.params
    cap = search_cap(prob)
    t1g = np.linspace(0.0, cap, search.n_time)
    t3g = np.linspace(0.0, p.tau, search.n_time)[1:]
    Tg = np.linspace(0.0, cap, search.n_time)[1:]
    A, B, C = np.meshgrid(t1g, t3g, Tg, indexing="ij")
    box = C - A - B >= -1e-12
    P1, P3 = np.meshgrid(t1g, t3g, indexing="ij")
    plane = P1 + P3 <= cap + 1e-12
    t1 = np.concatenate([A[box], P1[plane]])
    t3 = np.concatenate([B[box], P3[plane]])
    T = np.concatenate([C[box], (P1 + P3)[plane]])
    t2 = np.maximum(T - t1 - t3, 0.0)
    inside = t1 + t2 + t3 <= cap
    t1, t2, t3, T = t1[inside], t2[inside], t3[inside], T[inside]
    fee_of = best_fee(prob)
    F = np.array([fee_of(length) for length in T.tolist()], dtype=float)
    return t1, t2, t3, F, substituted_profit(prob, t1, t2, t3, F)


def reference_seeds(prob, search):
    """Seeds of a full (profit, F, T, t1) lexsort over the finite grid."""
    p = prob.params
    cap = search_cap(prob)
    t1, t2, t3, F, prof = reference_grid(prob, search)
    finite = np.isfinite(prof)
    t1, t2, t3, F, prof = (a[finite] for a in (t1, t2, t3, F, prof))
    dt = cap / (search.n_time - 1)
    d3 = p.tau / (search.n_time - 1)
    seeds = []
    for idx in np.lexsort((t1, t1 + t2 + t3, F, -prof)):
        cand = (float(t1[idx]), float(t2[idx]), float(t3[idx]))
        if not any(abs(cand[0] - s[0]) < dt and abs(cand[1] - s[1]) < dt
                   and abs(cand[2] - s[2]) < d3 for s in seeds):
            seeds.append(cand)
            if len(seeds) >= search.top_n:
                break
    return seeds


class TestStreamedSeedSelection:
    """Sorting the head of the grid picks exactly the seeds of a full sort."""

    @pytest.mark.parametrize("table, row", [("T3", 5), ("T4", 0), ("T5", 9),
                                            ("T6", 3)])
    def test_reference_table_rows(self, table, row):
        config = ExperimentConfig()
        setup = _table_setup(TableId[table])
        prob = build_problem(config, setup, *setup.rows[row])
        assert _seeds(prob, config.search) == \
            reference_seeds(prob, config.search)
        # The grid holds every finite point, in grid order, to the same
        # bits as the flattened reference.
        grid = reference_grid(prob, config.search)
        want = np.stack(grid)[:, np.isfinite(grid[-1])]
        got = np.stack(equilibrium._candidate_grid(prob, config.search))
        assert got.tobytes() == want.tobytes()

    def test_seeded_random_problems(self):
        rng = np.random.default_rng(11)
        specs = (MDT, NPS, SignalSpec(SignalKind.WEIGHTED,
                                      ((SignalKind.MDT, 0.3),
                                       (SignalKind.NPS, 0.7))))
        for _ in range(25):
            prob = problem(tau=float(rng.uniform(0.5, 7.0)),
                           c2=float(rng.choice([0.0, 0.2, 1.0, 1.7, 3.0])),
                           K=float(rng.uniform(500.0, 4000.0)),
                           r=float(rng.uniform(4.0, 48.0)),
                           fee_model=(LIN, LOG)[rng.integers(2)],
                           spec=specs[rng.integers(3)])
            search = SearchSpec(n_time=int(rng.integers(3, 14)),
                                top_n=int(rng.integers(1, 12)))
            assert _seeds(prob, search) == reference_seeds(prob, search)

    def test_pinned_fee(self):
        prob = problem(5.0, 1, f_min=40.0, f_max=40.0)
        search = SearchSpec(n_time=20)
        assert _seeds(prob, search) == reference_seeds(prob, search)

    def test_short_head_continues_over_the_rest(self, monkeypatch):
        # With one point per seed in the head, near-duplicates among the
        # best points leave it short, so the rest is sorted and scanned.
        monkeypatch.setattr(equilibrium, "_HEAD_PER_SEED", 1)
        prob = problem(2.0, 1)
        search = SearchSpec(n_time=10, top_n=8)
        sorts = []
        lexsort = np.lexsort

        def spy(keys):
            sorts.append(len(keys[0]))
            return lexsort(keys)

        with monkeypatch.context() as mp:
            mp.setattr(equilibrium.np, "lexsort", spy)
            got = _seeds(prob, search)
        assert got == reference_seeds(prob, search)
        assert len(got) == 8 and len(sorts) == 2

    def test_grid_with_fewer_distinct_seeds_than_asked(self):
        # The whole two-point-per-axis grid holds fewer well-separated
        # points than top_n, so both parts are scanned to the end.
        prob = problem(2.0, 1)
        search = SearchSpec(n_time=2, top_n=8)
        got = _seeds(prob, search)
        assert got == reference_seeds(prob, search)
        assert 0 < len(got) < search.top_n

    def test_ties_at_the_head_edge(self):
        # With no regular demand and the fee pinned where the linear
        # family's member count is zero, the profit is -K/T for every
        # (t1, t3): the best points all tie, at and beyond the k-th.
        prob = problem(3.0, 1, f_min=100.0, f_max=100.0, lambda_r=0.0)
        search = SearchSpec(n_time=12, top_n=3)
        assert _seeds(prob, search) == reference_seeds(prob, search)
        prof = reference_grid(prob, search)[-1]
        assert (np.count_nonzero(prof == prof.max())
                > equilibrium._HEAD_PER_SEED * search.top_n)


#: No demand at all (lambda_r = 0, N = 0): the profit -K/T is best on the
#: grid's last T value, T = cap.
NO_DEMAND = problem(6.058552205701222, 1, lambda_r=0.0,
                    fee_model=FeeModel(FeeFamily.LOGARITHMIC, 0, 101, 5))

TABLE_ROW_PROBLEMS = [
    pytest.param(build_problem(ExperimentConfig(), setup, *key),
                 id=f"{table.value}-{i}")
    for table in TableId for setup in [_table_setup(table)]
    for i, key in enumerate(setup.rows)]


class TestGridInsideTheBox:
    """Every grid point is a cycle the objective accepts."""

    @pytest.mark.parametrize("prob", [
        *TABLE_ROW_PROBLEMS, pytest.param(NO_DEMAND, id="no-demand")])
    def test_grid_points_are_finite_under_the_objective(self, prob):
        neg_profit = _objective(prob)
        t1, t2, t3, _, _ = equilibrium._candidate_grid(prob, SearchSpec())
        assert t1.size
        values = list(map(neg_profit, t1.tolist(), t2.tolist(), t3.tolist()))
        assert all(map(math.isfinite, values))


class TestSearchBudget:
    def test_default_and_finer_grids_fit(self):
        SearchSpec()
        SearchSpec(n_time=128)
        assert 128 ** 2 * 127 <= MAX_GRID_POINTS

    def test_oversized_grid_rejected_before_allocation(self):
        for n_time in (129, 400):
            with pytest.raises(InvalidParams, match="budget"):
                SearchSpec(n_time=n_time)

    def test_grid_and_seed_count_must_be_positive(self):
        for kwargs in ({"n_time": 1}, {"top_n": 0}):
            with pytest.raises(InvalidParams, match="positive"):
                SearchSpec(**kwargs)

    def test_seed_count_capped(self):
        SearchSpec(top_n=MAX_SEEDS)
        with pytest.raises(InvalidParams, match="budget"):
            SearchSpec(top_n=MAX_SEEDS + 1)
