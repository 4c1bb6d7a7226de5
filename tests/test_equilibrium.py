from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import sys

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
from womops.domain import cycle_profit, potential_market, signal_value
from womops.equilibrium import (MAX_GRID_POINTS, Refinement, SearchSpec,
                                _GOLDEN, _STEP, _T3_FLOOR, _T_TOL, _phase3,
                                _slice_search, minimize, search_cap)
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


def profiled_profit(prob, T, s):
    """Profit of the cycle of length T with slack s = T - t1, at the best
    fee F*(T) and the best t3 for (T, s): the score of one candidate of
    ``_slice_search``, from ``best_fee``, ``_phase3`` and the domain
    formulas."""
    p = prob.params
    _, c1, fee_rate = best_fee(prob)(T)
    t3 = _phase3(prob)(T, s, c1 * (p.r + fee_rate - p.h * T / 2.0))
    lam = c1 * signal_value(prob.signal_spec, s - t3, t3, T,
                            p.tau) ** prob.resp.c2
    return cycle_profit(p, lam, fee_rate, T - s, t3, T)


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
            SearchSpec(n_time=12))
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

    def test_tied_refinements_take_the_stable_order(self):
        # Refined points within 1e-6 in profit tie: the smaller fee wins,
        # then the shorter cycle, then the shorter t1, in whatever order
        # the refinements arrive.  A profit more than 1e-6 ahead wins
        # outright.
        better = equilibrium._better
        corner = (-38.0952380952381, 100.0, 21.0, 2.0)
        assert better(corner, None)
        tied = [corner,
                (corner[0] + 5e-7, 100.0, 21.0, 2.5),
                (corner[0] - 5e-7, 100.0, 20.0, 3.0),
                (corner[0] + 4e-7, 90.0, 21.0, 2.0),
                (corner[0] - 4e-7, 90.0, 20.0, 2.0),
                (corner[0], 90.0, 20.0, 1.0)]
        for order in (tied, tied[::-1], tied[2:] + tied[:2]):
            best = None
            for key in order:
                if better(key, best):
                    best = key
            assert best == (corner[0], 90.0, 20.0, 1.0)
        ahead = (corner[0] + 2e-6, 100.0, 21.0, 2.0)
        assert better(ahead, tied[-1]) and not better(tied[-1], ahead)
        assert not better(corner, corner)

    def test_losing_premium_market_drives_t3_toward_zero(self):
        # Members grow with the fee (a = 0, b < 0), but at long cycles a
        # premium order loses money, and there is no regular demand: the
        # best cycle is as long as the search allows, with t3 -> 0 and the
        # profit tending to -K/cap.  The t3 -> 0+ end is a candidate of
        # every slice, so it is reached, not dropped as outside the box.
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
            # The profiled profit takes the fee at F*(T) and t3 at its best
            # for (T, s): the profit of that policy, and no less than this
            # one.
            s = t2 + t3
            T = t1 + s
            fee, c1, fee_rate = best_fee(prob)(T)
            best_t3 = _phase3(prob)(T, s, c1 * (prob.params.r + fee_rate
                                                - prob.params.h * T / 2.0))
            best_pol = ShipmentPolicy(t1, s - best_t3, best_t3)
            lam = respond(prob.resp, LIN, fee,
                          signal(MDT, best_pol, prob.params.tau))
            want = profit_rate_with_fees(prob.params, LIN, best_pol, fee, lam)
            got = profiled_profit(prob, T, s)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
            lam = respond(prob.resp, LIN, fee, theta)
            assert got >= profit_rate_with_fees(prob.params, LIN, pol, fee,
                                                lam) - 1e-9

    def test_fee_box_outside_the_family_domain_rejected(self):
        # The logarithmic family is defined for F < b = 101 only.
        with pytest.raises(InvalidParams, match="fee bound 150"):
            problem(2.0, 1, fee_model=LOG, f_max=150.0)

    # (signal, fee family, c2, r, K, h, tau, lambda_r, f_min, f_max, profit)
    KINK_PROBLEMS = {
        "MDT-linear": (MDT, LIN, 0.0, 44.063927951769436, 369.5590262599833,
                       0.7304672857727916, 2.665551605849465, 0.0,
                       5.140570717379402, 66.43224699248982,
                       20409.61235515501),
        "NPS-logarithmic": (NPS, LOG, 2.0, 12.450518651905341,
                            3407.590384349537, 3.8687134441377746,
                            1.9600074579923565, 6.289118688264493,
                            22.42719029217531, 95.57986445140038,
                            2183.87822894859),
        "MDT-logarithmic": (MDT, LOG, 2.1389438451379172, 15.19596362475774,
                            2499.4020983287, 6.5753794633722125,
                            3.3934272026775205, 0.0, 32.97533727316943,
                            46.52413477251423, 1061.2812116935047),
    }

    @pytest.mark.parametrize("name", KINK_PROBLEMS)
    def test_near_the_kink_keeps_its_profit(self, name):
        # Each optimum lies near s = tau, where a polish split at the kink
        # fell short of these profits (the last two also with a second-side
        # polish); the solver also beats a 600 x 600 (t1, s) scan on each.
        spec, fm, c2, r, K, h, tau, lam_r, f_min, f_max, want = \
            self.KINK_PROBLEMS[name]
        params = MarketParams(r=r, K=K, h=h, tau=tau, lambda_r=lam_r, M=30.0,
                              f_min=f_min, f_max=f_max)
        prob = EquilibriumProblem(params, fm, CustomerResponse(c2), spec)
        assert solve_equilibrium(prob).profit >= want - 1e-9 * abs(want)

    def test_losing_nps_market_reaches_the_t3_floor_at_the_cap(self):
        # Draw 622 of the seed-7 recipe (recipe_problem), rounded: every
        # cycle loses money, and the best point known is s -> 0+ at the cap,
        # where theta and lambda_p vanish.  A grid-seeded polish stopped at
        # -847.20 (t1 2.71, s about 4e-194).
        params = MarketParams(r=5.3357, K=2298.5878, h=7.5372, tau=5.1671,
                              lambda_r=0.0, M=30.0, f_min=5.0316,
                              f_max=76.5484)
        prob = EquilibriumProblem(params, LIN, CustomerResponse(0.049), NPS)
        want = profiled_profit(prob, search_cap(prob), _T3_FLOOR)
        assert want == pytest.approx(-148.28, abs=0.005)
        assert solve_equilibrium(prob).profit >= want - 1e-9 * abs(want)

    def test_losing_nps_market_reaches_the_t3_floor_inside_the_box(self):
        # Draw 1125 of the same recipe: regular demand keeps the best
        # cycle, T = 6.59 with s -> 0+, well inside the box (cap 19.8).  A
        # grid-seeded polish stopped at -249.75 (T 5.18, t3 2.67).
        prob = recipe_problem(1125)
        T = 6.592840460137546
        want = profiled_profit(prob, T, _T3_FLOOR)
        assert want == pytest.approx(-229.99, abs=0.005)
        sol = solve_equilibrium(prob)
        assert sol.profit >= want - 1e-9 * abs(want)
        assert sol.policy.cycle_length == pytest.approx(T, abs=1e-6)

    def test_short_cycle_inside_the_first_cell(self):
        # The best cycle, T = t3 = 0.243, lies inside (0, T_1], T_1 = 2.12
        # on the 12-point lattice, and P climbs from T_1 to the cap, so no
        # lattice maximum points at it; the first cell's bound does.
        params = MarketParams(r=9.1573, K=126.3118, h=9.5077, tau=7.7708,
                              lambda_r=0.0, M=300.0, f_min=10.0358,
                              f_max=33.3211)
        prob = EquilibriumProblem(params, LIN, CustomerResponse(0.891), NPS)
        sol = solve_equilibrium(prob, SearchSpec(n_time=12))
        assert sol.policy.cycle_length == pytest.approx(0.2430409, abs=1e-6)
        assert sol.profit == pytest.approx(3082.727035, abs=1e-5)

    @pytest.mark.parametrize("n_time", [20, 40])
    def test_short_cycle_beside_a_lesser_peak(self, n_time):
        # The first cell of the 12-point lattice, (0, 1.24], holds this
        # peak, T = t3 = 0.280, and a lesser one near T = 1.0; refined from
        # T_1 on that lattice the solve climbs to the lesser (-557.71).
        # The 20- and 40-point lattices bracket the peak itself.
        params = MarketParams(r=2.5464, K=427.49, h=8.5445, tau=4.5393,
                              lambda_r=85.21, M=300.0, f_min=22.3045,
                              f_max=22.3045)
        prob = EquilibriumProblem(params, FeeModel(FeeFamily.LINEAR, 300, 2, 5),
                                  CustomerResponse(1.5646), NPS)
        sol = solve_equilibrium(prob, SearchSpec(n_time=n_time))
        assert sol.policy.cycle_length == pytest.approx(0.27993, abs=1e-5)
        assert sol.profit == pytest.approx(433.3231, abs=1e-4)

    def test_overflowing_response(self):
        # Weights may sum to 1 + 1e-9.  Unless the weighted theta is divided
        # by that sum it can exceed 1, and theta ** c2 then overflows and
        # hides the best cycle, (0, 0, tau, f_min).
        spec = SignalSpec(SignalKind.WEIGHTED, ((SignalKind.MDT, 0.5000000005),
                                                (SignalKind.NPS, 0.5)))
        prob = problem(2.0, 1e13, spec=spec)
        assert profiled_profit(prob, 2.0, 2.0) == 1230.0
        sol = solve_equilibrium(prob, SearchSpec(n_time=12))
        assert (sol.policy.t1, sol.policy.t2, sol.policy.t3, sol.fee) == \
            (0.0, 0.0, 2.0, 10.0)
        assert sol.profit == pytest.approx(1230.0, rel=1e-12)


def recipe_problems():
    """The draws of a seeded MDT/NPS recipe (numpy seed 7), in order:
    losing markets, no regular demand and all three fee models included."""
    rng = np.random.default_rng(7)
    fee_models = (LIN, LOG, FeeModel(FeeFamily.LINEAR, 0, -0.5, 5))
    while True:
        fee_model = fee_models[rng.integers(3)]
        spec = (MDT, NPS)[rng.integers(2)]
        h, r, K, tau = (float(rng.uniform(lo, hi)) for lo, hi in (
            (0.5, 8.0), (4.0, 48.0), (100.0, 4000.0), (0.5, 7.0)))
        lambda_r = float(rng.choice([0.0, rng.uniform(1.0, 100.0)]))
        f_min, f_max, c2 = (float(rng.uniform(lo, hi)) for lo, hi in (
            (5.0, 20.0), (20.0, 100.0), (0.0, 4.0)))
        params = MarketParams(r=r, K=K, h=h, tau=tau, lambda_r=lambda_r,
                              M=30.0, f_min=f_min, f_max=f_max)
        yield EquilibriumProblem(params, fee_model, CustomerResponse(c2), spec)


def recipe_problem(draw):
    """Draw ``draw`` of :func:`recipe_problems`."""
    return next(itertools.islice(recipe_problems(), draw, None))


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
            fee = fee_of(T)[0]
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
                assert fee_of(T)[0] == newton_fee(prob, T), (prob, T)
        assert sides == {"lo": {False, True}, "hi": {False, True}}

    @pytest.mark.parametrize("fee_model", FAMILIES,
                             ids=lambda fm: f"{fm.family.value}-{fm.a}-{fm.b}")
    @pytest.mark.parametrize("f_min, f_max", [(10.0, 100.0), (40.0, 40.0)])
    def test_fee_terms_are_those_of_the_fee(self, fee_model, f_min, f_max):
        # Each branch hands out (F, c1(F), F/(delta M)), the bounds' triples
        # taken once per problem, with the bits the formulas give.
        prob = problem(2.0, 1, fee_model=fee_model, f_min=f_min, f_max=f_max)
        fee_of = best_fee(prob)
        delta_M = fee_model.delta * prob.params.M
        Ts = np.linspace(0.0, search_cap(prob), 41).tolist() + [1e6]
        fees = set()
        for T in Ts:
            fee, c1, fee_rate = fee_of(T)
            want = (fee, potential_market(fee_model, fee), fee / delta_M)
            assert [float.hex(x) for x in (fee, c1, fee_rate)] == \
                [float.hex(x) for x in want], T
            fees.add(fee)
        assert fees & {f_min, f_max}

    @pytest.mark.parametrize("r, M", [(1e300, 30.0), (1e306, 1e6)])
    def test_huge_logarithmic_root_is_f_min(self, r, M):
        # A = 1.5e302 runs the Newton iteration on a huge root; A = 5e312
        # overflows to inf.  Either way F* is f_min, never NaN.
        assert best_fee(problem(2.0, 1, r=r, M=M,
                                fee_model=LOG))(1.0)[0] == 10.0


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
        fee = best_fee(prob)(t3)[0]
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
        p = prob.params
        fee, c1, fee_rate = best_fee(prob)(T)
        s = T - t1
        U = min(p.tau, s)
        t3 = _phase3(prob)(T, s, c1 * (p.r + fee_rate - p.h * T / 2.0))
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
    fees = np.array([fee_of(x)[0] for x in axis.tolist()], dtype=float)
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


def lattice_best(prob, search):
    """The first lattice row T whose P(T) is the largest, and that P."""
    best_at = _slice_search(prob)
    points = [(best_at(T), T) for T in lattice(prob, search) if T > 0]
    profits = [(point[0], -k, T) for k, (point, T) in enumerate(points)
               if point is not None]
    if not profits:
        return None
    top, _, T = max(profits)
    return T, top


def assert_refines_the_lattice_best(prob, search):
    """The bounded scan refines the whole lattice's best row, so its
    solution is at least that row's P(T)."""
    best = lattice_best(prob, search)
    with pytest.MonkeyPatch.context() as mp:
        seeds = record_seeds(mp)
        if best is None:
            with pytest.raises(InfeasibleProblem):
                solve_equilibrium(prob, search)
            return
        sol = solve_equilibrium(prob, search)
    T, top = best
    assert T in [x for _, x, _ in seeds]
    assert sol.profit >= top - 1e-12 * max(1.0, abs(top))


def record_seeds(monkeypatch) -> list[tuple[float, float, float]]:
    """Patch ``minimize`` so that each refinement appends its (a, x, b)."""
    seeds = []
    minimize = equilibrium.minimize

    def recording(best_at, a, x, b, fx, tau):
        seeds.append((a, x, b))
        return minimize(best_at, a, x, b, fx, tau)

    monkeypatch.setattr(equilibrium, "minimize", recording)
    return seeds


def record_solves(monkeypatch, points=None) -> list[float]:
    """Patch ``_slice_search`` so that each P(T) evaluation appends its T,
    and its point to ``points`` when that list is given."""
    solved = []
    slice_search = equilibrium._slice_search

    def recording(prob):
        best_at = slice_search(prob)

        def recorded(T):
            solved.append(T)
            point = best_at(T)
            if points is not None:
                points.append(point)
            return point

        return recorded

    monkeypatch.setattr(equilibrium, "_slice_search", recording)
    return solved


def record_rows(monkeypatch) -> list[float]:
    """Leave the lattice rows unrefined, and append each row T solved."""
    solved = record_solves(monkeypatch)
    monkeypatch.setattr(equilibrium, "minimize",
                        lambda best_at, a, x, b, fx, tau:
                        equilibrium.Refinement(fx, 0, True))
    return solved


def lattice(prob, search):
    """The T rows of the lattice: ``np.linspace(0, cap, n_time)[1:]``."""
    return np.linspace(0.0, search_cap(prob), search.n_time)[1:].tolist()


UNDERFLOWING = problem(5e-324, 1, K=5e-324, r=5e-324, f_min=0.0, f_max=0.0,
                       lambda_r=0.0)


class TestStreamedSeedSelection:
    """The bounded row scan refines the seed the whole lattice's best row
    gives: every row it skips has a bound below the best P(T) found."""

    @pytest.mark.parametrize("table, row", [("T3", 5), ("T4", 0), ("T5", 9),
                                            ("T6", 3)])
    def test_reference_table_rows(self, table, row):
        config = ExperimentConfig()
        setup = _table_setup(TableId[table])
        prob = build_problem(config, setup, *setup.rows[row])
        assert_refines_the_lattice_best(prob, config.search)

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
            assert_refines_the_lattice_best(
                prob, SearchSpec(n_time=int(rng.integers(3, 14))))

    def test_grid_step_that_underflows(self):
        # cap / 39 is 0 at a cap of 1.5e-323: np.linspace then takes
        # i / 39 * cap, and so does the lattice.
        assert search_cap(UNDERFLOWING) / 39 == 0
        assert_refines_the_lattice_best(UNDERFLOWING, SearchSpec())
        sol = solve_equilibrium(UNDERFLOWING)
        assert sol.policy.cycle_length == search_cap(UNDERFLOWING)

    def test_repeated_seeds_are_refined_once(self, monkeypatch):
        # On the underflowing axis many rows share one T; a run of equal
        # profits is one lattice maximum, refined once.
        seeds = record_seeds(monkeypatch)
        solve_equilibrium(UNDERFLOWING)
        cap = search_cap(UNDERFLOWING)
        assert lattice(UNDERFLOWING, SearchSpec()).count(cap) > 1
        assert [x for _, x, _ in seeds] == [cap]

    def test_pinned_fee(self):
        prob = problem(5.0, 1, f_min=40.0, f_max=40.0)
        assert_refines_the_lattice_best(prob, SearchSpec(n_time=20))
        assert solve_equilibrium(prob, SearchSpec(n_time=20)).fee == 40.0

    def test_pinned_fee_scores_every_cycle_at_that_fee(self, monkeypatch):
        # With f_min = f_max the fee is no coordinate of the search: every
        # cycle length the solve visits is scored at the pinned fee.
        points = []
        record_solves(monkeypatch, points)
        sol = solve_equilibrium(problem(5.0, 1, f_min=40.0, f_max=40.0),
                                SearchSpec(n_time=20))
        fees = [point[4] for point in points if point is not None]
        assert len(fees) > 20 and set(fees) == {40.0}
        assert (sol.fee, sol.branch.value) == (40.0, "numeric-boundary")

    def test_two_point_axis_has_one_seed(self, monkeypatch):
        # The two-point axis has one row, T = cap, refined on [0, cap].
        prob = problem(2.0, 1)
        seeds = record_seeds(monkeypatch)
        solve_equilibrium(prob, SearchSpec(n_time=2))
        cap = search_cap(prob)
        assert seeds == [(0.0, cap, cap)]

    def test_ties_at_the_head_edge(self):
        # With no regular demand and the fee pinned where the linear
        # family's member count is zero, the profit is -K/T for every t1:
        # every t1 ties at T = cap, and the smallest, 0, wins.
        prob = problem(3.0, 1, f_min=100.0, f_max=100.0, lambda_r=0.0)
        sol = solve_equilibrium(prob, SearchSpec(n_time=12))
        assert sol.policy.t1 == 0.0
        assert sol.policy.cycle_length == search_cap(prob)
        assert sol.profit == -prob.params.K / search_cap(prob)
        assert_refines_the_lattice_best(prob, SearchSpec(n_time=12))


#: No demand at all (lambda_r = 0, N = 0): the profit -K/T is best on the
#: lattice's last T value, T = cap.
NO_DEMAND = problem(6.058552205701222, 1, lambda_r=0.0,
                    fee_model=FeeModel(FeeFamily.LOGARITHMIC, 0, 101, 5))

TABLE_ROW_PROBLEMS = [
    pytest.param(build_problem(ExperimentConfig(), setup, *key),
                 id=f"{table.value}-{i}")
    for table in TableId for setup in [_table_setup(table)]
    for i, key in enumerate(setup.rows)]


class TestGridInsideTheBox:
    """Every lattice row's best cycle is inside the box, at its profiled
    profit, and below the row's bound, and its t3 and fee are those of
    ``_phase3`` and ``best_fee`` to the bit."""

    @pytest.mark.parametrize("prob", [
        *TABLE_ROW_PROBLEMS, pytest.param(NO_DEMAND, id="no-demand")])
    def test_grid_points_are_finite_under_the_objective(self, prob):
        p = prob.params
        best_at = _slice_search(prob)
        bound = equilibrium._row_bound(prob)
        fee_of, t3_of = best_fee(prob), _phase3(prob)
        rows = lattice(prob, SearchSpec())
        assert len(rows) == 39
        for T in rows:
            profit, t1, s, t3, fee = best_at(T)
            assert math.isfinite(profit)
            assert 0.0 <= t1 and 0.0 < s <= T and t1 == T - s
            assert profit == profiled_profit(prob, T, s)
            assert profit <= bound(T, T)
            F, c1, fee_rate = fee_of(T)
            want = t3_of(T, s, c1 * (p.r + fee_rate - p.h * T / 2.0))
            assert [float.hex(x) for x in (t3, fee)] == \
                [float.hex(x) for x in (want, F)]


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
    return prob, SearchSpec(n_time=draw(st.integers(2, 40)))


class TestGridRowBound:
    """Each T row's bound holds, and the bounded scan keeps the lattice's
    best row."""

    @settings(max_examples=150, deadline=None)
    @given(grid_problems())
    @example((problem(2.0, 1), SearchSpec()))
    @example((problem(5.0, 1, f_min=40.0, f_max=40.0), SearchSpec(n_time=20)))
    @example((problem(3.0, 3.0, lambda_r=0.0, fee_model=LOG), SearchSpec()))
    @example((NO_DEMAND, SearchSpec()))
    def test_random_markets(self, case):
        prob, search = case
        best_at = _slice_search(prob)
        bound = equilibrium._row_bound(prob)
        rows = [T for T in lattice(prob, search) if T > 0]
        for lo, T in zip([0.0] + rows, rows):
            point = best_at(T)
            if point is not None:
                assert point[0] <= bound(T, T)
                # The cell's bound covers both of its ends.
                assert point[0] <= bound(lo, T)
                if lo > 0 and best_at(lo) is not None:
                    assert best_at(lo)[0] <= bound(lo, T)
        assert_refines_the_lattice_best(prob, search)

    def test_table_rows_evaluate_few_points(self, monkeypatch):
        # The lattice rows the 44 table rows' scans solve, out of 44 x 39
        # = 1,716.  A looser bound solves more.
        solved = record_rows(monkeypatch)
        for param in TABLE_ROW_PROBLEMS:
            solve_equilibrium(param.values[0])
        assert len(TABLE_ROW_PROBLEMS) == 44
        assert len(solved) == ROWS_SOLVED

    def test_nan_bound_is_scanned_and_keeps_the_order(self, monkeypatch):
        # A NaN bound ranks first, and the other rows keep their order.
        prob = TABLE_ROW_PROBLEMS[0].values[0]
        cap = search_cap(prob)
        with monkeypatch.context() as mp:
            solved = record_rows(mp)
            want = solve_equilibrium(prob)
            rows = list(solved)
        row_bound = equilibrium._row_bound

        def nan_at_the_cap(prob):
            bound = row_bound(prob)
            return lambda lo, hi: math.nan if hi == cap else bound(lo, hi)

        monkeypatch.setattr(equilibrium, "_row_bound", nan_at_the_cap)
        solved = record_rows(monkeypatch)
        got = solve_equilibrium(prob)
        assert rows[0] != cap  # without the NaN, another row comes first
        assert solved[0] == cap
        assert [T for T in solved if T != cap] == [T for T in rows if T != cap]
        assert got == want

    def test_overflowing_fixed_cost_scans_every_row(self, monkeypatch):
        # K / T overflows on every row, so each bound is -inf + inf = NaN:
        # all 39 rows are solved, and none has a finite profit.
        prob = problem(1e-310, 1, K=1.0, r=1e-310, f_min=0.0, f_max=0.0,
                       lambda_r=0.0)
        T = search_cap(prob) / 39
        assert math.isnan(equilibrium._row_bound(prob)(T, T))
        solved = record_rows(monkeypatch)
        with pytest.raises(InfeasibleProblem):
            solve_equilibrium(prob)
        assert len(solved) == 39


#: Lattice rows the 44 T3-T6 rows' scans solve at the default search.
ROWS_SOLVED = 209


@pytest.fixture(scope="module")
def table_solutions():
    """The 44 T3-T6 rows' solutions and each table's P(T) evaluations."""
    config = ExperimentConfig()
    solutions, nfev = [], {}
    with pytest.MonkeyPatch.context() as mp:
        evaluated = record_solves(mp)
        for table in ("T3", "T4", "T5", "T6"):
            setup = _table_setup(TableId[table])
            for row in setup.rows:
                solutions.append(solve_equilibrium(
                    build_problem(config, setup, *row), config.search))
            nfev[table] = len(evaluated)
            evaluated.clear()
    return solutions, nfev


#: sha256 of the 44 T3-T6 solutions' (t1, t2, t3, F, lambda_p, profit) as
#: ``float.hex``, one row per line.  The CSVs round to 2 decimals; this
#: pins every bit, so a change that moves one has to say so.
SOLUTIONS_SHA256 = (
    "2416be2f7f61373b2705e7510be173333ee69ae865b0e1474afdbfee94a6039e")

#: The 44 T3-T6 profits of the grid-seeded Nelder-Mead search this solver
#: replaced, as ``float.hex``, in table and row order.
POLISHED_PROFITS = (
    '0x1.4cee60ad8d054p+10', '0x1.4cee60ad9712dp+10', '0x1.50aaaaaaaaaabp+10',
    '0x1.50aaaaaaaaaabp+10', '0x1.3380000000000p+10', '0x1.3380000000000p+10',
    '0x1.33fa3b4109550p+8', '0x1.d2dfab52681a0p+5', '0x1.984571a1aa7a4p+7',
    '0x1.9d5922668e8e8p+6', '0x1.0b5bb3416e7fcp+11', '0x1.0b5bb3416e7fdp+11',
    '0x1.f8b5788ef478ep+10', '0x1.f8b5788ef478ep+10', '0x1.b19aa302759fep+10',
    '0x1.b19aa302759fep+10', '0x1.59f045de8aac4p+9', '0x1.27bd193553fe6p+8',
    '0x1.2051c85d1a13ep+9', '0x1.e71168e3eeb21p+7', '0x1.1596d6cf5265ap+12',
    '0x1.3a8864af6da85p+14', '0x1.e36dd5d0e5983p+11', '0x1.2ce6dd929c66dp+14',
    '0x1.13fc023a8953ap+12', '0x1.3a88000000000p+14', '0x1.df7c65fe2e5eep+11',
    '0x1.2c78000000001p+14', '0x1.13fc023a8953ap+12', '0x1.3a88000000000p+14',
    '0x1.df7c65fe2e5ecp+11', '0x1.2c78000000001p+14', '0x1.1671967b91cccp+12',
    '0x1.3b5050ffdebc8p+14', '0x1.e50c3385752e7p+11', '0x1.2da8e1f1d73f6p+14',
    '0x1.14dcdf31aa5c2p+12', '0x1.3b501ac0f453ap+14', '0x1.e127bfaef5cddp+11',
    '0x1.2d3d3732c2dedp+14', '0x1.14dcdf31aa5c2p+12', '0x1.3b501ac0f453ap+14',
    '0x1.e127bfaef5cdcp+11', '0x1.2d3d3732c2dedp+14',
)


class TestTableSolutions:
    def test_never_below_the_polished_profits(self, table_solutions):
        solutions, _ = table_solutions
        assert len(solutions) == len(POLISHED_PROFITS) == 44
        for sol, text in zip(solutions, POLISHED_PROFITS):
            floor = float.fromhex(text)
            assert sol.profit >= floor - 1e-9 * max(1.0, abs(floor))

    def test_evaluation_counts_are_pinned(self, table_solutions):
        _, nfev = table_solutions
        assert nfev == {"T3": 190, "T4": 287, "T5": 298, "T6": 300}

    def test_solutions_are_pinned_to_the_bit(self, table_solutions):
        solutions, _ = table_solutions
        lines = (" ".join(float.hex(v) for v in (
            sol.policy.t1, sol.policy.t2, sol.policy.t3, sol.fee,
            sol.lambda_p, sol.profit)) for sol in solutions)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == SOLUTIONS_SHA256



def peaked(f):
    """A ``best_at`` whose P(T) is f(T), at t1 = 0 and s = T."""
    return lambda T: (f(T), 0.0, T)


class TestMinimize:
    """Brent's method on one bracket, against shapes of P(T) whose peak is
    known."""

    PEAK = 2.3
    SHAPES = {"quadratic": lambda d: -d * d,
              "quartic": lambda d: -d ** 4 - d * d,
              "skewed": lambda d: -d * d * (1.5 + d)}

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("a, x, b", [(1.0, 2.0, 3.0), (1.0, 2.9, 3.0),
                                         (2.0, 2.6, 3.1), (1.5, 1.6, 4.0)])
    def test_smooth_peak_in_few_probes(self, shape, a, x, b):
        # Golden section takes 47 to 49 probes on these brackets.
        best_at = peaked(lambda T: self.SHAPES[shape](T - self.PEAK))
        res = minimize(best_at, a, x, b, best_at(x), tau=10.0)
        assert res.success
        assert abs(res.x[2] - self.PEAK) <= _T_TOL * res.x[2]
        assert res.nfev <= 20

    @pytest.mark.parametrize("x", [2.0, 2.7])
    def test_kink_at_tau_closes_in_two_probes(self, x):
        tau = 2.7
        probes = []

        def best_at(T):
            probes.append(T)
            return (-abs(T - tau), 0.0, T)

        fx = best_at(x)
        probes.clear()
        res = minimize(best_at, 1.0, x, 4.0, fx, tau)
        assert res.x[2] == tau and res.success
        assert probes[-2:] == [tau * (1.0 - _STEP), tau * (1.0 + _STEP)]
        assert res.nfev == len(probes) <= 3

    def test_peak_beside_tau_is_still_found(self):
        # T = tau beats x, but tau (1 + _STEP) beats tau: the search goes on.
        best_at = peaked(lambda T: -(T - 3.0) ** 2)
        res = minimize(best_at, 1.0, 2.0, 4.0, best_at(2.0), tau=2.7)
        assert abs(res.x[2] - 3.0) <= _T_TOL * 3.0 and res.success

    def test_first_cell_from_its_right_end(self):
        # The first cell is refined as minimize(0, T_1, T_1): x is b.
        rising = peaked(lambda T: T)
        res = minimize(rising, 0.0, 1.24, 1.24, rising(1.24), tau=4.5)
        assert res.x[2] == 1.24 and res.success
        inside = peaked(lambda T: -(T - 0.3) ** 2)
        res = minimize(inside, 0.0, 1.24, 1.24, inside(1.24), tau=4.5)
        assert abs(res.x[2] - 0.3) <= _T_TOL * 0.3 and res.success

    def test_no_cycle_never_wins(self):
        # P rises to the right, but no cycle is longer than 2.2.
        def capped(T):
            return None if T > 2.2 else (T, 0.0, T)

        res = minimize(capped, 1.0, 2.0, 3.0, capped(2.0), tau=2.5)
        assert res.x is not None and 2.0 <= res.x[2] <= 2.2
        assert res.success

        def alone(T):
            return (1.0, 0.0, T) if T == 2.0 else None

        res = minimize(alone, 1.0, 2.0, 3.0, alone(2.0), tau=2.5)
        assert res.x == (1.0, 0.0, 2.0) and res.success

    def test_a_tie_keeps_x(self):
        # x moves only to a strictly better probe: on a plateau it stays.
        flat = peaked(lambda T: 1.0)
        res = minimize(flat, 1.0, 2.0, 3.0, flat(2.0), tau=2.5)
        assert res.x == (1.0, 0.0, 2.0) and res.success

    def test_never_below_the_start(self):
        # Jagged P with gaps without a cycle: whatever the bracket holds,
        # the result is a probed point inside it and no worse than x.
        rng = np.random.default_rng(30)
        for _ in range(200):
            knots = rng.normal(size=9).tolist()
            holes = rng.uniform(0.0, 4.0, size=2).tolist()

            def best_at(T):
                if min(holes) < T < max(holes) and T > 2.5:
                    return None
                return (float(np.interp(T, np.linspace(0.0, 4.0, 9), knots)),
                        0.0, T)

            a, x, b = sorted(rng.uniform(0.0, 4.0, size=3).tolist())
            fx = best_at(x)
            if fx is None:
                continue
            res = minimize(best_at, a, x, b, fx,
                           tau=float(rng.uniform(0.0, 4.0)))
            assert res.x[0] >= fx[0]
            assert a <= res.x[2] <= b and res.x == best_at(res.x[2])

    def test_float_resolution_stops_first(self):
        # At T = 1e-320, _T_TOL of T underflows to 0: the bracket closes
        # to adjacent floats and never to the tolerance.
        rising = peaked(lambda T: T)
        res = minimize(rising, 0.0, 1e-320, 1e-320, rising(1e-320), tau=1.0)
        assert res.x[2] == 1e-320
        assert not res.success


def golden_section(best_at, a, x, b, fx, tau):
    """The golden-section refinement that Brent's method replaced."""
    nfev = 0
    if a < tau < b and tau != x:
        ft = best_at(tau)
        nfev += 1
        if ft is not None and ft[0] > fx[0]:
            x, fx = tau, ft
    while b - a > _T_TOL * x:
        u = x - _GOLDEN * (x - a) if x - a > b - x else x + _GOLDEN * (b - x)
        if not a < u < b or u == x:
            break
        fu = best_at(u)
        nfev += 1
        if fu is not None and fu[0] > fx[0]:
            if u < x:
                b = x
            else:
                a = x
            x, fx = u, fu
        elif u < x:
            a = u
        else:
            b = u
    return Refinement(fx, nfev, not b - a > _T_TOL * x)


def solved_profit(prob, search):
    """The solver's profit, or None when the box has no cycle."""
    try:
        return solve_equilibrium(prob, search).profit
    except InfeasibleProblem:
        return None


class TestAgainstGoldenSection:
    def test_never_below_golden_section(self, monkeypatch):
        # MDT and NPS recipe draws and weighted draws, at three lattices.
        rng = np.random.default_rng(7)
        pool = [*itertools.islice(recipe_problems(), 140),
                *(random_weighted_problem(rng) for _ in range(60))]
        for draw, prob in enumerate(pool):
            for n_time in (12, 20, 40):
                search = SearchSpec(n_time=n_time)
                got = solved_profit(prob, search)
                with monkeypatch.context() as mp:
                    mp.setattr(equilibrium, "minimize", golden_section)
                    want = solved_profit(prob, search)
                assert (got is None) == (want is None), (draw, n_time)
                if want is not None:
                    assert got >= want - 1e-9 * max(1.0, abs(want)), \
                        (draw, n_time)

class TestSearchBudget:
    def test_default_and_finer_grids_fit(self):
        SearchSpec()
        SearchSpec(n_time=128)
        assert MAX_GRID_POINTS == 128 - 1

    def test_oversized_grid_rejected_before_allocation(self):
        for n_time in (129, 400):
            with pytest.raises(InvalidParams, match="budget"):
                SearchSpec(n_time=n_time)

    def test_grid_count_must_be_positive(self):
        with pytest.raises(InvalidParams, match="^n_time must be"):
            SearchSpec(n_time=1)

    @pytest.mark.parametrize("field", ["n_time"])
    @pytest.mark.parametrize("value", [10.5, 2.0, float("nan"), float("inf"),
                                       True, "8", None, np.int64(8)])
    def test_counts_must_be_integers(self, field, value):
        # A float, even a whole one, would reach the lattice axis's range()
        # and fail there with a TypeError; a NumPy integer would fail in
        # the manifest's json.dumps.
        with pytest.raises(InvalidParams, match=f"^{field} must be an integer"):
            SearchSpec(**{field: value})
