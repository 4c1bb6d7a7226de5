from __future__ import annotations

import dataclasses
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
                                _T3_FLOOR, _objective, _phase3, _seeds,
                                search_cap)
from womops.errors import InfeasibleProblem, InvalidParams
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
            # The objective takes the fee at F*(T) and t3 at its best for
            # (T, s): the profit of that policy, and no less than this one.
            s = t2 + t3
            T = t1 + s
            fee = best_fee(prob)(T)
            best_t3 = _phase3(prob)(T, s, LIN.members(fee) * LIN.delta,
                                    fee / (LIN.delta * prob.params.M))
            best_pol = ShipmentPolicy(t1, s - best_t3, best_t3)
            lam = respond(prob.resp, LIN, fee,
                          signal(MDT, best_pol, prob.params.tau))
            want = profit_rate_with_fees(prob.params, LIN, best_pol, fee, lam)
            got = -_objective(prob)(t1, s)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
            lam = respond(prob.resp, LIN, fee, theta)
            assert got >= profit_rate_with_fees(prob.params, LIN, pol, fee,
                                                lam) - 1e-9

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

    def test_bound_exit_matches_newton(self):
        # best_fee skips the Newton root when A is past a fee bound's
        # threshold g(b - F) = (b - F)(ln(b - F) + 1).  On random problems,
        # at T uniform over the box and at T where A is within a few ulps
        # of either threshold, it must return the reference's fee exactly.
        def newton_fee(prob, T):
            p, fm = prob.params, prob.fee_model
            A = fm.delta * p.M * (p.r - p.h * T / 2.0) + fm.b
            if not A > 1.0:
                return p.f_max
            if A == math.inf:
                return p.f_min
            u = A
            for _ in range(64):
                slope = math.log(u) + 2.0
                nxt = u / slope + A / slope
                if not nxt < u:
                    break
                u = nxt
            return min(max(fm.b - u, p.f_min), p.f_max)

        def g(u):
            return u * (math.log(u) + 1.0)

        def draw(rng):
            b = float(np.exp(rng.uniform(math.log(2.0), math.log(1e6))))
            room = sorted(np.exp(rng.uniform(0.0, math.log(b), 2)).tolist())
            if room[0] == room[1]:
                room[1] = room[0] + 1.0
            # f_max = b - 1 in a fifth of the draws, where A <= 1 exits too.
            f_max = b - (1.0 if rng.random() < 0.2 else room[0])
            f_min = max(0.0, b - room[1])
            fee_model = FeeModel(FeeFamily.LOGARITHMIC,
                                 float(rng.uniform(0.1, 100.0)), b,
                                 float(rng.uniform(0.5, 10.0)))
            h, M = float(rng.uniform(0.5, 8.0)), float(rng.uniform(1.0, 60.0))
            # r puts A = g(b - f_min) at a positive T.
            T_lo = float(rng.uniform(0.1, 5.0))
            r = (g(b - f_min) - b) / (fee_model.delta * M) + h * T_lo / 2.0
            if not (r > 0 and f_min < f_max):
                return None
            params = MarketParams(r=r, K=2000.0, h=h, tau=2.0, lambda_r=50.0,
                                  M=M, f_min=f_min, f_max=f_max)
            return EquilibriumProblem(params, fee_model, CustomerResponse(1.0),
                                      MDT)

        def A_of(prob, T):
            p, fm = prob.params, prob.fee_model
            return fm.delta * p.M * (p.r - p.h * T / 2.0) + fm.b

        def near(prob, target):
            """T within 12 ulps of where A = target."""
            p, fm = prob.params, prob.fee_model
            T = 2.0 * (p.r - (target - fm.b) / (fm.delta * p.M)) / p.h
            up, down = [T], [T]
            for _ in range(12):
                up.append(math.nextafter(up[-1], math.inf))
                down.append(math.nextafter(down[-1], -math.inf))
            return up + down[1:]

        rng = np.random.default_rng(20261019)
        problems = []
        while len(problems) < 400:
            prob = draw(rng)
            if prob is not None:
                problems.append(prob)
        # b - f_min so large that g(b - f_min) overflows, with f_max far
        # short of b - 1, and A from finite to inf.  At f_max = 100,
        # g(b - f_max) overflows too, and A = inf must still take f_min.
        huge = FeeModel(FeeFamily.LOGARITHMIC, 20.0, 1e307, 5.0)
        for f_max in (1e307 - 1e300, 100.0):
            for r in (1.0, 1e304, 1e306, 1e308):
                problems.append(EquilibriumProblem(
                    MarketParams(r=r, K=2000.0, h=4.0, tau=2.0,
                                 lambda_r=50.0, M=30.0, f_min=10.0,
                                 f_max=f_max),
                    huge, CustomerResponse(1.0), MDT))
        assert math.isinf(g(1e307 - 100.0))
        assert math.isinf(A_of(problems[-1], 0.0))

        # The sides of each threshold on which some A within 4 ulps fell.
        sides = {"lo": set(), "hi": set()}
        for prob in problems:
            p, b = prob.params, prob.fee_model.b
            fee_of = best_fee(prob)
            T_hi = 2.0 * (p.r - (g(b - p.f_max) - b)
                          / (prob.fee_model.delta * p.M)) / p.h
            Ts = np.linspace(0.0, min(max(2.0 * T_hi, 1.0), 1e300),
                             24).tolist()
            for end, F in (("lo", p.f_min), ("hi", p.f_max)):
                threshold = g(b - F)
                if not math.isfinite(threshold):
                    continue
                for T in near(prob, threshold):
                    A = A_of(prob, T)
                    if abs(A - threshold) <= 4 * math.ulp(threshold):
                        sides[end].add(A > threshold)
                    Ts.append(T)
            for T in Ts:
                assert fee_of(T) == newton_fee(prob, T), (prob, T)
        assert sides == {"lo": {False, True}, "hi": {False, True}}

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


W_MDT = SignalSpec(SignalKind.WEIGHTED,
                   ((SignalKind.MDT, 0.6), (SignalKind.NPS, 0.4)))
W_LOW = SignalSpec(SignalKind.WEIGHTED,
                   ((SignalKind.MDT, 0.9), (SignalKind.NPS, 0.1)))


class TestPhase3:
    """The closed-form t3 against a dense scan of t3 at fixed (t1, T).

    With f_max = 60 the linear family keeps 40 members at the cap of the
    fee box, so past T = 4.2 the premium margin Q is negative; at T = 3
    it is positive.  Each case names the end the rule must take: U =
    min(tau, s), the t3 -> 0+ floor, or an interior root.
    """

    CASES = [
        # NPS: theta ignores t3, so t3 = U whatever the sign of Q.
        ("nps-q-positive", dict(tau=4.0, c2=1.0, spec=NPS), 0.5, 3.0, "U"),
        ("nps-q-negative", dict(tau=4.0, c2=2.5, spec=NPS), 0.5, 7.0, "U"),
        # MDT with Q >= 0, also priced out (Q = 0 at f_max = 100).
        ("mdt-q-positive", dict(tau=4.0, c2=2.5), 0.5, 3.0, "U"),
        ("mdt-q-zero", dict(tau=4.0, c2=2.5, f_max=100.0), 0.5, 7.0, "U"),
        # MDT, Q < 0, c2 <= 1: the better end.
        ("mdt-convex-floor", dict(tau=4.0, c2=0.5), 0.5, 7.0, "floor"),
        ("mdt-convex-no-regulars", dict(tau=4.0, c2=0.5, lambda_r=0.0),
         1.0, 10.0, "floor"),
        ("mdt-linear-no-regulars", dict(tau=4.0, c2=1.0, lambda_r=0.0),
         0.5, 7.0, "floor"),
        ("mdt-convex-U", dict(tau=4.0, c2=0.5, lambda_r=400.0), 0.5, 7.0, "U"),
        ("mdt-linear-U", dict(tau=4.0, c2=1.0, lambda_r=400.0), 0.5, 7.0, "U"),
        # MDT, Q < 0, c2 > 1: the clipped root.
        ("mdt-concave-root", dict(tau=4.0, c2=2.5), 0.5, 7.0, "interior"),
        ("mdt-concave-few-regulars", dict(tau=4.0, c2=3.0, lambda_r=5.0),
         1.0, 10.0, "interior"),
        ("mdt-concave-U", dict(tau=4.0, c2=1.5, lambda_r=2000.0),
         0.5, 7.0, "U"),
        ("mdt-concave-no-regulars", dict(tau=4.0, c2=2.5, lambda_r=0.0),
         0.5, 7.0, "floor"),
        # Weighted: theta = beta + alpha t3 with beta > 0.
        ("weighted-q-positive", dict(tau=4.0, c2=2.5, spec=W_MDT),
         0.5, 3.0, "U"),
        ("weighted-convex-floor", dict(tau=4.0, c2=0.5, spec=W_MDT),
         0.5, 7.0, "floor"),
        ("weighted-concave-floor", dict(tau=4.0, c2=2.5, spec=W_MDT),
         0.5, 7.0, "floor"),
        ("weighted-concave-root", dict(tau=4.0, c2=3.0, lambda_r=200.0,
                                       spec=W_LOW), 0.5, 7.0, "interior"),
        # c2 = 0: the response ignores theta.
        ("insensitive", dict(tau=4.0, c2=0.0), 0.5, 7.0, "U"),
    ]

    @pytest.mark.parametrize("kwargs, t1, T, end",
                             [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_beats_a_dense_scan(self, kwargs, t1, T, end):
        prob = problem(**{"f_max": 60.0, **kwargs})
        p, fm = prob.params, prob.fee_model
        fee = best_fee(prob)(T)
        c1 = fm.members(fee) * fm.delta
        fee_rate = fee / (fm.delta * p.M)
        s = T - t1
        U = min(p.tau, s)
        t3 = _phase3(prob)(T, s, c1, fee_rate)
        kind = ("U" if t3 == U else "floor" if t3 == _T3_FLOOR
                else "interior" if 0.0 < t3 < U else "outside")
        assert kind == end
        scan = np.concatenate([np.geomspace(1e-300, U, 2001),
                               np.linspace(0.0, U, 200001)[1:]])
        profits = substituted_profit(prob, t1, s - scan, scan, fee)
        best = float(substituted_profit(prob, t1, s - t3, t3, fee))
        scale = max(1.0, float(np.max(np.abs(profits))))
        assert best >= float(np.max(profits)) - 1e-12 * scale
        if kind == "interior":
            # The scan's best point is next to the root.
            assert scan[int(np.argmax(profits))] == pytest.approx(t3, abs=1e-4)


def random_weighted_problem(rng):
    """A random weighted-signal market, losing premium markets included."""
    w = float(rng.uniform(0.05, 0.95))
    spec = SignalSpec(SignalKind.WEIGHTED,
                      ((SignalKind.MDT, w), (SignalKind.NPS, 1.0 - w)))
    fee_model = (LIN, LOG, FeeModel(FeeFamily.LINEAR, 0, -0.5, 5))[
        rng.integers(3)]
    return problem(tau=float(rng.uniform(0.5, 7.0)),
                   c2=float(rng.uniform(0.0, 4.0)),
                   K=float(rng.uniform(500.0, 4000.0)),
                   r=float(rng.uniform(4.0, 48.0)),
                   lambda_r=float(rng.choice([0.0, rng.uniform(1.0, 100.0)])),
                   f_max=float(rng.uniform(20.0, 100.0)),
                   fee_model=fee_model, spec=spec)


def best_scanned_profit(prob, n=48):
    """The best point of a dense (t1, T, t3) scan of the search box, with
    the fee at F*(T) and t3 in (0, min(tau, T - t1)]."""
    cap = search_cap(prob)
    axis = np.linspace(0.0, cap, n)
    fee_of = best_fee(prob)
    fees = np.array([fee_of(x) for x in axis.tolist()], dtype=float)
    t1, T, t3 = np.meshgrid(axis, axis, np.linspace(0.0, prob.params.tau, n)[1:],
                            indexing="ij")
    F = np.broadcast_to(fees[None, :, None], T.shape)
    inside = t3 <= T - t1
    t1, T, t3, F = t1[inside], T[inside], t3[inside], F[inside]
    with np.errstate(over="ignore", invalid="ignore"):
        profits = substituted_profit(prob, t1, T - t1 - t3, t3, F)
    return float(np.max(profits[np.isfinite(profits)]))


class TestWeightedProblems:
    def test_never_below_a_dense_scan(self):
        # The inner t3 is exact for every (t1, T), so on weighted problems
        # too no point of the 3-D box may beat the solver's optimum.  A
        # search over (t1, t2, t3) fell short of the scan on draws 17, 52,
        # 64 and 113, all loss-making with c2 > 1.6, where its polish
        # stopped short of the interior t3.
        rng = np.random.default_rng(20261019)
        for draw in range(150):
            prob = random_weighted_problem(rng)
            sol = solve_equilibrium(prob)
            best = best_scanned_profit(prob)
            assert sol.profit >= best - 1e-9 * max(1.0, abs(best)), draw


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
    """The objective on every (t1, T) lattice pair with t1 < T, T-major,
    as (t1, s, T, F*(T), profit) with s = T - t1."""
    axis = np.linspace(0.0, search_cap(prob), search.n_time)
    B, A = np.meshgrid(axis[1:], axis, indexing="ij")
    pair = A < B
    t1, T = A[pair], B[pair]
    s = T - t1
    fee_of = best_fee(prob)
    F = np.array([fee_of(length) for length in T.tolist()], dtype=float)
    neg_profit = _objective(prob)
    prof = -np.array(list(map(neg_profit, t1.tolist(), s.tolist())))
    return t1, s, T, F, prof


def reference_seeds(prob, search):
    """The first top_n points of the finite grid in (profit, F, T, t1)
    order, by Python's stable sort, so full ties keep grid order."""
    t1, s, T, F, prof = reference_grid(prob, search)
    finite = np.flatnonzero(np.isfinite(prof)).tolist()
    order = sorted(finite, key=lambda k: (-prof[k], F[k], T[k], t1[k]))
    return [(float(t1[k]), float(s[k])) for k in order[:search.top_n]]


def assert_reference_points(prob, search):
    """Every point the grid returns is a finite point of the reference
    lattice, with its bits in all five columns, and no point comes more
    often than the lattice holds it (an axis that underflows repeats
    values)."""
    want = Counter(column.tobytes()
                   for column in np.stack(reference_grid(prob, search)).T)
    got = np.stack(equilibrium._candidate_grid(prob, search))
    assert np.isfinite(got[-1]).all()
    assert Counter(column.tobytes() for column in got.T) <= want


class TestStreamedSeedSelection:
    """Seed selection picks exactly the seeds of a full sort of the grid."""

    @pytest.mark.parametrize("table, row", [("T3", 5), ("T4", 0), ("T5", 9),
                                            ("T6", 3)])
    def test_reference_table_rows(self, table, row):
        config = ExperimentConfig()
        setup = _table_setup(TableId[table])
        prob = build_problem(config, setup, *setup.rows[row])
        assert _seeds(prob, config.search) == \
            reference_seeds(prob, config.search)
        assert_reference_points(prob, config.search)

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

    def test_grid_step_that_underflows(self):
        # cap / 39 is 0 at a cap of 1.5e-323: np.linspace then takes
        # i / 39 * cap, and so does the grid.
        prob = problem(5e-324, 1, K=5e-324, r=5e-324, f_min=0.0, f_max=0.0,
                       lambda_r=0.0)
        assert search_cap(prob) / 39 == 0
        assert_reference_points(prob, SearchSpec())
        assert _seeds(prob, SearchSpec()) == reference_seeds(prob, SearchSpec())

    def test_pinned_fee(self):
        prob = problem(5.0, 1, f_min=40.0, f_max=40.0)
        search = SearchSpec(n_time=20)
        assert _seeds(prob, search) == reference_seeds(prob, search)

    def test_grid_with_fewer_distinct_seeds_than_asked(self):
        # The two-point axis makes a one-point grid, (t1, T) = (0, cap).
        prob = problem(2.0, 1)
        search = SearchSpec(n_time=2, top_n=8)
        got = _seeds(prob, search)
        assert got == reference_seeds(prob, search)
        assert got == [(0.0, search_cap(prob))]

    def test_ties_at_the_head_edge(self):
        # With no regular demand and the fee pinned where the linear
        # family's member count is zero, the profit is -K/T for every t1:
        # the best points all tie, at T = cap, and the smallest t1 win.
        prob = problem(3.0, 1, f_min=100.0, f_max=100.0, lambda_r=0.0)
        search = SearchSpec(n_time=12, top_n=3)
        got = _seeds(prob, search)
        assert got == reference_seeds(prob, search)
        t1, _, T, _, prof = reference_grid(prob, search)
        cap = search_cap(prob)
        assert np.count_nonzero(prof == prof.max()) == search.n_time - 1
        assert [seed[0] for seed in got] == t1[T == cap][:3].tolist()


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
    """Every grid point is a cycle the objective accepts, at its profit."""

    @pytest.mark.parametrize("prob", [
        *TABLE_ROW_PROBLEMS, pytest.param(NO_DEMAND, id="no-demand")])
    def test_grid_points_are_finite_under_the_objective(self, prob):
        # All 780 lattice pairs are in the box: the objective's profit is
        # finite on each.  The grid returns some of them, at those bits.
        t1, _, _, _, prof = reference_grid(prob, SearchSpec())
        assert len(t1) == 40 * 39 // 2
        assert np.isfinite(prof).all()
        assert_reference_points(prob, SearchSpec())


@st.composite
def grid_problems(draw):
    """A random market and search: MDT, NPS and weighted signals, both
    fee families, a pinned fee, no regular demand and N = 0 included."""
    spec = draw(st.sampled_from([MDT, NPS]) | st.floats(0.05, 0.95).map(
        lambda w: SignalSpec(SignalKind.WEIGHTED,
                             ((SignalKind.MDT, w), (SignalKind.NPS, 1.0 - w)))))
    fee_model = draw(st.sampled_from([
        LIN, LOG, FeeModel(FeeFamily.LINEAR, 0, -0.5, 5),
        FeeModel(FeeFamily.LINEAR, 0, 0, 5),          # N = 0
        FeeModel(FeeFamily.LOGARITHMIC, 0, 101, 5)]))  # N = 0
    f_min = draw(st.floats(0.0, 60.0))
    f_max = draw(st.just(f_min) | st.floats(f_min, 100.0))
    prob = problem(tau=draw(st.floats(0.1, 8.0)),
                   c2=draw(st.sampled_from([0.0, 0.2, 1.0, 1.7, 3.0])),
                   K=draw(st.floats(1.0, 5000.0)),
                   r=draw(st.floats(0.5, 60.0)),
                   lambda_r=draw(st.just(0.0) | st.floats(0.5, 120.0)),
                   f_min=f_min, f_max=f_max, fee_model=fee_model, spec=spec)
    search = SearchSpec(n_time=draw(st.integers(2, 40)),
                        top_n=draw(st.integers(1, 12)))
    return prob, search


def count_evaluations(monkeypatch) -> list[float]:
    """Patch ``_objective`` so that each evaluation appends its t1."""
    evaluated = []
    objective = equilibrium._objective

    def counting(prob):
        neg_profit = objective(prob)

        def counted(t1, s):
            evaluated.append(t1)
            return neg_profit(t1, s)

        return counted

    monkeypatch.setattr(equilibrium, "_objective", counting)
    return evaluated


class TestGridRowBound:
    """Each T row's bound holds, and the bounded scan keeps every seed."""

    @settings(max_examples=150, deadline=None)
    @given(grid_problems())
    @example((problem(2.0, 1), SearchSpec()))
    @example((problem(5.0, 1, f_min=40.0, f_max=40.0), SearchSpec(n_time=20)))
    @example((problem(3.0, 3.0, lambda_r=0.0, fee_model=LOG), SearchSpec()))
    @example((NO_DEMAND, SearchSpec()))
    def test_random_markets(self, case):
        prob, search = case
        _, _, T, _, prof = reference_grid(prob, search)
        bound = equilibrium._row_bound(prob)
        fee_terms = equilibrium._fee_terms(prob)
        for length in set(T.tolist()):
            row = prof[(T == length) & np.isfinite(prof)]
            assert (row <= bound(length, *fee_terms(length)[1:])).all()
        if np.isfinite(prof).any():
            assert _seeds(prob, search) == reference_seeds(prob, search)
        else:
            with pytest.raises(InfeasibleProblem):
                _seeds(prob, search)

    def test_table_rows_evaluate_few_points(self, monkeypatch):
        # The objective evaluations of the 44 table rows' grids, out of
        # 44 x 780 = 34,320 lattice points.  A looser bound scans more.
        evaluated = count_evaluations(monkeypatch)
        for param in TABLE_ROW_PROBLEMS:
            equilibrium._candidate_grid(param.values[0], SearchSpec())
        assert len(TABLE_ROW_PROBLEMS) == 44
        assert len(evaluated) == 2034

    def test_nan_bound_is_scanned_and_keeps_the_order(self, monkeypatch):
        # A NaN bound ranks first, and the other rows keep their order.
        prob, search = TABLE_ROW_PROBLEMS[0].values[0], SearchSpec()
        rows = list(dict.fromkeys(equilibrium._candidate_grid(prob, search)[2]))
        row_bound = equilibrium._row_bound

        def nan_at_the_cap(prob):
            bound = row_bound(prob)
            cap = search_cap(prob)
            return lambda T, c1, fee_rate: (math.nan if T == cap
                                            else bound(T, c1, fee_rate))

        monkeypatch.setattr(equilibrium, "_row_bound", nan_at_the_cap)
        got = list(dict.fromkeys(equilibrium._candidate_grid(prob, search)[2]))
        cap = search_cap(prob)
        assert rows[0] != cap  # without the NaN, another row comes first
        assert got[0] == cap
        assert [T for T in got if T != cap] == [T for T in rows if T != cap]
        assert _seeds(prob, search) == reference_seeds(prob, search)

    def test_overflowing_fixed_cost_scans_every_row(self, monkeypatch):
        # K / T overflows on every row, so each bound is -inf + inf = NaN:
        # all 780 points are scanned, and none is finite.
        prob = problem(1e-310, 1, K=1.0, r=1e-310, f_min=0.0, f_max=0.0,
                       lambda_r=0.0)
        fee_terms = equilibrium._fee_terms(prob)
        T = search_cap(prob) / 39
        assert math.isnan(equilibrium._row_bound(prob)(T, *fee_terms(T)[1:]))
        evaluated = count_evaluations(monkeypatch)
        assert equilibrium._candidate_grid(prob, SearchSpec())[-1] == []
        assert len(evaluated) == 780
        with pytest.raises(InfeasibleProblem):
            _seeds(prob, SearchSpec())


class TestSearchBudget:
    def test_default_and_finer_grids_fit(self):
        SearchSpec()
        SearchSpec(n_time=128)
        assert 128 * 127 // 2 <= MAX_GRID_POINTS < 129 * 128 // 2

    def test_oversized_grid_rejected_before_allocation(self):
        for n_time in (129, 400):
            with pytest.raises(InvalidParams, match="budget"):
                SearchSpec(n_time=n_time)

    def test_grid_and_seed_count_must_be_positive(self):
        for kwargs in ({"n_time": 1}, {"top_n": 0}):
            field = next(iter(kwargs))
            with pytest.raises(InvalidParams, match=f"^{field} must be"):
                SearchSpec(**kwargs)

    @pytest.mark.parametrize("field", ["n_time", "top_n"])
    @pytest.mark.parametrize("value", [10.5, 2.0, float("nan"), float("inf"),
                                       True, "8", None, np.int64(8)])
    def test_counts_must_be_integers(self, field, value):
        # A float, even a whole one, would reach the grid axis's range()
        # or the seed slice and fail there with a TypeError; a NumPy
        # integer would fail in the manifest's json.dumps.
        with pytest.raises(InvalidParams, match=f"^{field} must be an integer"):
            SearchSpec(**{field: value})

    def test_seed_count_capped(self):
        SearchSpec(top_n=MAX_SEEDS)
        with pytest.raises(InvalidParams, match="budget"):
            SearchSpec(top_n=MAX_SEEDS + 1)
