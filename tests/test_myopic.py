from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womops import (GridSpec, InvalidGrid, InvalidParams, MarketParams,
                    PolicyCase, PolicySolution, ShipmentPolicy, candidate,
                    grid_search_policy, myopic, profit_rate, solve_policy)


def params(r=8.0, K=2000.0, h=4.0, tau=2.0, lambda_r=50.0):
    return MarketParams(r=r, K=K, h=h, tau=tau, lambda_r=lambda_r, M=30,
                        f_min=10, f_max=100)


class TestCandidates:
    def test_case_i_is_declared_delivery_only(self):
        pol = candidate(PolicyCase.I, params(tau=3.3), 42.0)
        assert (pol.t1, pol.t2, pol.t3) == (0.0, 0.0, 3.3)

    def test_case_ii_cycle_length(self):
        pol = candidate(PolicyCase.II, params(), 450.0)
        assert pol.t3 == pytest.approx(math.sqrt(4000.0 / 1800.0), rel=1e-12)
        assert pol.t3 == pytest.approx(1.49, abs=0.005)

    def test_case_iii_fast_phase(self):
        pol = candidate(PolicyCase.III, params(tau=1.0), 450.0)
        assert pol.t1 == pytest.approx(math.sqrt(2.1) - 1.0, rel=1e-12)
        assert pol.t1 == pytest.approx(0.45, abs=0.005)
        assert pol.t2 == 0.0 and pol.t3 == 1.0

    def test_case_iv_closed_form(self):
        # 2hK - 2h*lam_r*r*tau - lam_r*r^2 = 32000 - 3200 - 3200 = 25600;
        # T = sqrt(25600 / (16 * 100)) = 4, t1 = r/h = 2, t2 = 4 - 2 - 1 = 1.
        pol = candidate(PolicyCase.IV, params(K=4000.0, tau=1.0), 100.0)
        assert (pol.t1, pol.t3) == (2.0, 1.0)
        assert pol.t2 == pytest.approx(1.0, rel=1e-12)

    def test_infeasible_is_a_value(self):
        assert candidate(PolicyCase.II, params(), 100.0) is None  # root > tau
        assert candidate(PolicyCase.III, params(), 450.0) is None  # t1 <= 0
        assert candidate(PolicyCase.IV, params(tau=5.0), 450.0) is None  # radicand < 0

    def test_negative_demand_rejected(self):
        with pytest.raises(InvalidParams, match="lambda_p"):
            candidate(PolicyCase.I, params(), -1.0)
        with pytest.raises(InvalidParams, match="lambda_p"):
            solve_policy(params(), -1.0)
        with pytest.raises(InvalidParams, match="lambda_p"):
            grid_search_policy(params(), -1.0, GridSpec(step=0.01))

    def test_zero_demand_divides_by_zero_cases(self):
        with pytest.raises(InvalidParams):
            candidate(PolicyCase.II, params(), 0.0)
        with pytest.raises(InvalidParams):
            candidate(PolicyCase.IV, params(), 0.0)


class TestSolve:
    def test_high_demand_drops_below_declared_time(self):
        sol = solve_policy(params(), 450.0)
        assert sol.case is PolicyCase.II
        assert sol.policy.t3 == pytest.approx(1.4907, abs=5e-5)

    def test_low_demand_binds_declared_time(self):
        sol = solve_policy(params(), 186.34)
        assert sol.case is PolicyCase.III
        assert sol.policy.t1 == pytest.approx(0.25, abs=0.005)
        assert sol.policy.t3 == 2.0

    def test_region_boundary_keeps_declared_time(self):
        p = params()
        sol = solve_policy(p, p.demand_threshold)
        assert sol.policy.t3 == p.tau

    def test_zero_demand_lengthens_cycle_through_fast_phase(self):
        # With lambda_p = 0 the fast phase amortizes K: t1 > 0 whenever
        # t1* < 2K/(h lam_r tau).
        sol = solve_policy(params(tau=5.0), 0.0)
        assert sol.case is PolicyCase.III
        assert sol.policy.t1 == pytest.approx(math.sqrt(45.0) - 5.0, rel=1e-10)

    def test_both_rates_zero_rejected(self):
        with pytest.raises(InvalidParams):
            solve_policy(params(lambda_r=0.0), 0.0)

    def test_declared_time_whose_square_underflows(self):
        # T*T is 0 for case I's cycle T = tau; case I has no free phase,
        # so its residual needs no derivative and the solve divides by
        # nothing.
        sol = solve_policy(params(r=1.0, tau=2.07e-307), 0.0)
        assert sol.case is PolicyCase.III
        assert math.isfinite(sol.profit) and math.isfinite(sol.kkt_residual)

    def test_case_iv_with_a_holding_cost_whose_square_underflows(self):
        # h*h is 0 here; case IV's t2 divides by h only after the root.
        p = params(K=1e306, h=1e-300)
        sol = solve_policy(p, 450.0)
        assert sol.case is PolicyCase.IV
        radicand = 2 * p.h * p.K - p.lambda_r * p.r * (2 * p.h * p.tau + p.r)
        # t2 = sqrt(radicand / lambda_p) / h - r / h - tau; tau is lost
        # next to the other terms, near 6e301.
        assert sol.policy.t2 == pytest.approx(
            (math.sqrt(radicand / 450.0) - p.r) / p.h, rel=1e-12)
        assert math.isfinite(sol.profit) and math.isfinite(sol.kkt_residual)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(8, 48), st.floats(2000, 4000), st.floats(1, 7),
           st.floats(0, 500))
    def test_structure_region_and_kkt(self, r, K, tau, lam):
        p = params(r=r, K=K, tau=tau)
        sol = solve_policy(p, lam)
        pol = sol.policy
        # Structural dominance: no Phase 2 without Phase 1; no Phase 1 when
        # the realized delivery time beats the declared one.
        if pol.t1 == 0:
            assert pol.t2 == 0
        if pol.t3 < tau:
            assert pol.t1 == 0
        # Region consistency with the demand threshold.
        assert (pol.t3 < tau) == (lam > p.demand_threshold)
        assert sol.kkt_residual <= 1e-6
        assert pol.t3 <= tau + 1e-12


class TestOracle:
    def test_reference_point_profit_within_grid_tolerance(self):
        p = params()
        exact = solve_policy(p, 450.0)
        grid = grid_search_policy(p, 450.0, GridSpec(step=0.005))
        assert abs(exact.profit - grid.profit) <= 1e-2
        assert grid.profit <= exact.profit + 1e-9

    def test_zero_demand_agrees_with_closed_form(self):
        p = params(tau=5.0)
        exact = solve_policy(p, 0.0)
        grid = grid_search_policy(p, 0.0, GridSpec(step=0.01, t_max=10.0))
        assert abs(exact.profit - grid.profit) <= 5e-2
        assert grid.policy.t1 == pytest.approx(exact.policy.t1, abs=0.02)

    def test_case_iv_agrees_with_grid(self):
        p = params(K=4000.0, tau=1.0)
        exact = solve_policy(p, 100.0)
        assert exact.case is PolicyCase.IV
        grid = grid_search_policy(p, 100.0, GridSpec(step=0.01))
        assert abs(exact.profit - grid.profit) <= 2e-2
        assert grid.policy.t1 == pytest.approx(2.0, abs=0.02)
        assert grid.policy.t2 == pytest.approx(1.0, abs=0.03)

    def test_grid_never_beats_closed_form(self):
        for lam in (30.0, 120.0, 450.0):
            p = params(K=3000.0, tau=1.5)
            exact = solve_policy(p, lam)
            grid = grid_search_policy(p, lam, GridSpec(step=0.02))
            assert grid.profit <= exact.profit + 1e-9

    def test_bad_grids_rejected(self):
        with pytest.raises(InvalidGrid):
            grid_search_policy(params(), 450.0, GridSpec(step=0.0))
        with pytest.raises(InvalidGrid):
            grid_search_policy(params(), 450.0, GridSpec(step=0.01, t_max=0.5))
        with pytest.raises(InvalidGrid, match="too coarse"):
            grid_search_policy(params(), 450.0, GridSpec(step=100.0))

    def test_profit_matches_shared_evaluator(self):
        p = params()
        grid = grid_search_policy(p, 200.0, GridSpec(step=0.05))
        assert grid.profit == pytest.approx(
            profit_rate(p, grid.policy, 200.0), rel=1e-12)


def _reference_grid_search(params, lambda_p, grid):
    """The full-rectangle scan the band scan replaced, kept as its reference.

    It evaluates every (t1, T) pair of the two axes and masks the infeasible
    ones; the oracle must return the same ``PolicySolution`` to the bit.
    """
    step = grid.step
    t_max = grid.resolve_t_max(params, lambda_p)
    r, K, h, lam_r = params.r, params.K, params.h, params.lambda_r

    n_phase = int(math.floor(t_max / step + 1e-9))
    t3_cap = min(params.tau, t_max)
    n_t3 = int(math.floor(t3_cap / step + 1e-9))
    if n_phase < 1 or n_t3 < 1:
        raise InvalidGrid("grid too coarse for the bounds")

    t1_axis = np.arange(0, n_phase + 1) * step
    T_axis = np.arange(1, 2 * n_phase + n_t3 + 1) * step

    best_val = -math.inf
    best = (0.0, 0.0, 0.0)
    chunk = max(1, int(1e6 // max(T_axis.size, 1)))
    for lo in range(0, t1_axis.size, chunk):
        t1 = t1_axis[lo:lo + chunk][:, None]
        T = T_axis[None, :]
        t3 = np.minimum(n_t3 * step, T - t1)
        t2 = T - t1 - t3
        feasible = (t3 > 0) & (t2 <= t_max * (1 + 1e-12))
        with np.errstate(invalid="ignore"):
            profit = (r * lambda_p
                      + r * lam_r * (t1 + t3) / T
                      - h * lambda_p * T / 2.0
                      - h * lam_r * t1 * t1 / (2.0 * T)
                      - K / T)
        profit = np.where(feasible, profit, -np.inf)
        flat = int(np.argmax(profit))
        val = float(profit.flat[flat])
        if val > best_val:
            i, j = np.unravel_index(flat, profit.shape)
            best_val = val
            best = (float(t1[i, 0]), float(t2[i, j]), float(t3[i, j]))

    if not math.isfinite(best_val):
        raise InvalidGrid("no feasible grid point")
    policy = ShipmentPolicy(best[0], max(best[1], 0.0), best[2])
    case = myopic._classify(policy, params.tau, step / 2.0)
    return PolicySolution(policy, case, best_val, lambda_p)


def _criterion_4_draws(n):
    """Instances drawn from the ranges of acceptance criterion 4.

    The step is twice the criterion's 0.005, which keeps the reference
    scan to a quarter of the points; both scans still span many chunks.
    """
    rng = np.random.default_rng(1703)

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return [(params(r=log_uniform(8, 48), K=log_uniform(2000, 4000),
                    tau=log_uniform(1, 7)),
             log_uniform(30, 500), GridSpec(step=0.01)) for _ in range(n)]


def _below_integer(k, step, gap):
    """t_max with t_max/step = k - gap."""
    return (k - gap) * step


#: (params, lambda_p, grid) instances the band scan is checked on.
BAND_CASES = {
    "zero-demand": (params(tau=5.0), 0.0, GridSpec(step=0.01, t_max=10.0)),
    # K is never covered at lambda_p = 0, so the best cycle stretches t2
    # up to t_max: the t2 bound decides the answer.
    "t2-at-bound": (params(K=2e4), 0.0, GridSpec(step=0.05, t_max=30.0)),
    "case-iv": (params(K=4000.0, tau=1.0), 100.0, GridSpec(step=0.01)),
    "step-0.05": (params(), 200.0, GridSpec(step=0.05)),
    "step-0.02": (params(K=3000.0, tau=1.5), 120.0, GridSpec(step=0.02)),
    # Within the 1e-9 slack n_phase rounds up to 300, and t2 = n_phase*step
    # lies above t_max by more than the 1e-12 tolerance: infeasible.
    "t_max-in-slack": (params(), 450.0,
                       GridSpec(step=0.01, t_max=_below_integer(300, 0.01,
                                                                8e-10))),
    # Past the slack but within the 1e-12 relative tolerance: n_phase is
    # 1999, yet t2 = 2000*step still passes the t_max test.
    "t_max-in-tolerance": (params(), 450.0,
                           GridSpec(step=0.002,
                                    t_max=_below_integer(2000, 0.002, 1.5e-9))),
}


class TestBandScan:
    """The band scan returns exactly what the full-rectangle scan returns."""

    @staticmethod
    def assert_same(p, lam, grid):
        got = grid_search_policy(p, lam, grid)
        assert got == _reference_grid_search(p, lam, grid)

    def test_criterion_4_draws(self):
        for p, lam, grid in _criterion_4_draws(30):
            self.assert_same(p, lam, grid)

    @pytest.mark.parametrize("name", sorted(BAND_CASES))
    def test_edge_grids(self, name):
        self.assert_same(*BAND_CASES[name])

    def test_ties_across_chunks_go_to_the_first_row(self, monkeypatch):
        # Without regular demand the profit depends on T alone, so every t1
        # row ties at the best T; the scan must keep t1 = 0.
        monkeypatch.setattr(myopic, "_ORACLE_CHUNK", 1)
        p, lam, grid = params(lambda_r=0.0), 450.0, GridSpec(step=0.05)
        self.assert_same(p, lam, grid)
        assert grid_search_policy(p, lam, grid).policy.t1 == 0.0

    @pytest.mark.parametrize("name", sorted(BAND_CASES))
    def test_only_band_points_are_feasible(self, name):
        p, lam, grid = BAND_CASES[name]
        t1_axis, T_pad, width, t3_cap, t_max = myopic._oracle_band(p, lam, grid)
        t1 = t1_axis[:, None]
        band = np.lib.stride_tricks.sliding_window_view(T_pad, width)
        feasible = myopic._largest_t3(t1, band, t3_cap, t_max)[2]
        assert band.shape[0] == t1_axis.size
        assert not feasible[:, -1].any()
        assert feasible[:, :-myopic._MASKED].all()
        # Every feasible point of the full (t1, T) rectangle lies in its
        # row's band.
        T_axis = T_pad[np.isfinite(T_pad)]
        full = myopic._largest_t3(t1, T_axis[None, :], t3_cap, t_max)[2]
        offset = np.arange(T_axis.size)[None, :] - np.arange(t1_axis.size)[:, None]
        assert not full[(offset < 0) | (offset >= width)].any()
        # Each t_max case tests something only if its premise holds: the
        # column with t2 = n_phase*step (third from the end) is infeasible
        # in some row, or the one with t2 = (n_phase + 1)*step is feasible.
        if name == "t_max-in-slack":
            assert not feasible[:, -3].all()
        if name == "t_max-in-tolerance":
            assert feasible[:, -2].any()
