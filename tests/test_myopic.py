from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from womops import (EPS_NUM, GridSpec, InvalidGrid, InvalidParams,
                    InvalidPolicy, MarketParams, PolicyCase, PolicySolution,
                    ShipmentPolicy, candidate, grid_search_policy, myopic,
                    profit_rate, solve_policy)


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

    def test_case_ii_cycle_that_underflows_to_zero_length(self):
        # 2K/(h lambda_p) underflows to 0: case II's cycle has no length,
        # which ShipmentPolicy refuses for the candidate and the solve alike.
        p = params(K=1e-300)
        with pytest.raises(InvalidPolicy, match="cycle length"):
            candidate(PolicyCase.II, p, 1e30)
        with pytest.raises(InvalidPolicy, match="cycle length"):
            solve_policy(p, 1e30)

    def test_case_ii_rate_product_that_underflows_to_zero(self):
        # h * lambda_p underflows to 0, so case II's cycle is infinite,
        # above tau: case III wins, not a division by zero.
        sol = solve_policy(params(h=0.5), 5e-324)
        assert sol.case is PolicyCase.III
        assert candidate(PolicyCase.II, params(h=0.5), 5e-324) is None
        assert math.isfinite(sol.profit) and math.isfinite(sol.kkt_residual)

    def test_case_iv_at_rates_whose_quotient_overflows(self):
        # The default market's radicand is 6400, so radicand / lambda_p is
        # inf below lambda_p of about 3.6e-305.  Case IV's profit keeps
        # rising toward 0 as lambda_p falls, and keeps beating case III.
        p = params()
        profits = []
        for lam in (1e-300, 1e-310, 5e-324):
            sol = solve_policy(p, lam)
            assert sol.case is PolicyCase.IV, lam
            assert (sol.policy.t1, sol.policy.t3) == (2.0, 2.0)
            assert math.isfinite(sol.policy.t2) and sol.policy.t2 > 1e150
            profits.append(sol.profit)
        assert 6400.0 / 1e-310 == math.inf
        assert profits[0] < profits[1] < profits[2] < 0
        assert profits[1] > -1e-150

    def test_integer_fields_give_float_phases(self):
        p = MarketParams(r=8, K=2000, h=4, tau=2, lambda_r=50, M=30,
                         f_min=10, f_max=100)
        for case in PolicyCase:
            policy = candidate(case, p, 1)
            if policy is not None:
                assert [type(v) for v in (policy.t1, policy.t2, policy.t3)] \
                    == [float] * 3, case
        cases = set()
        for lam in (0, 1, 100, 450):
            sol = solve_policy(p, lam)
            cases.add(sol.case)
            for v in (sol.policy.t1, sol.policy.t2, sol.policy.t3):
                v.hex()
        assert cases == {PolicyCase.II, PolicyCase.III, PolicyCase.IV}

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

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.5, 100), st.floats(1, 1e4), st.floats(0.1, 20),
           st.floats(0.1, 10), st.floats(0, 200),
           st.one_of(st.sampled_from([0.0, 1e-300, 1e-12, 1.0, 1e6]),
                     st.floats(1e-300, 1e6)))
    @example(8.0, 4000.0, 4.0, 1.0, 50.0, 100.0)  # case IV
    @example(8.0, 4000.0, 4.0, 7.0, 50.0, 0.0)  # every policy loses money
    def test_is_the_reference_argmax_to_the_bit(self, r, K, h, tau, lam_r,
                                                 lam):
        assume(lam > 0 or lam_r > 0)
        p = params(r=r, K=K, h=h, tau=tau, lambda_r=lam_r)
        # Every candidate as a policy, scored by ``profit_rate``; ties
        # within EPS_NUM go to the lowest case id.
        best = None
        for case in PolicyCase:
            if lam == 0 and case in (PolicyCase.II, PolicyCase.IV):
                continue
            policy = candidate(case, p, lam)
            if policy is not None:
                profit = profit_rate(p, policy, lam)
                if best is None or profit > best[2] + EPS_NUM:
                    best = (case, policy, profit)
        case, policy, profit = best
        sol = solve_policy(p, lam)

        def bits(pol):
            return [float(v).hex() for v in (pol.t1, pol.t2, pol.t3)]

        assert sol.case is case and bits(sol.policy) == bits(policy)
        assert sol.profit.hex() == profit.hex()
        assert sol.lambda_p == lam
        assert sol.kkt_residual == myopic._stationarity_residual(
            case, p, policy, lam)


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

    @pytest.mark.parametrize("grid", [GridSpec(step=0.01),
                                      GridSpec(step=0.01, t_max=10.0)],
                             ids=["derived-t_max", "explicit-t_max"])
    def test_no_demand_at_all_rejected(self, grid):
        with pytest.raises(InvalidParams, match="at least one demand rate"):
            grid_search_policy(params(lambda_r=0.0), 0.0, grid)

    def test_profit_matches_shared_evaluator(self):
        p = params()
        grid = grid_search_policy(p, 200.0, GridSpec(step=0.05))
        assert grid.profit == pytest.approx(
            profit_rate(p, grid.policy, 200.0), rel=1e-12)


def _reference_chunks(params, lambda_p, grid):
    """The full (t1, T) rectangle in chunks of t1 rows, infeasible at -inf.

    Yields ``(t1, t2, t3, profit)`` per chunk, with ``t1`` a column.
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
        yield t1, t2, t3, np.where(feasible, profit, -np.inf)


def _reference_grid_search(params, lambda_p, grid):
    """The full-rectangle scan the band scan replaced, kept as its reference.

    It evaluates every (t1, T) pair of the two axes, skips no row and masks
    the infeasible pairs; the oracle must return the same
    ``PolicySolution`` to the bit.
    """
    best_val = -math.inf
    best = (0.0, 0.0, 0.0)
    for t1, t2, t3, profit in _reference_chunks(params, lambda_p, grid):
        flat = int(np.argmax(profit))
        val = float(profit.flat[flat])
        if val > best_val:
            i, j = np.unravel_index(flat, profit.shape)
            best_val = val
            best = (float(t1[i, 0]), float(t2[i, j]), float(t3[i, j]))

    if not math.isfinite(best_val):
        raise InvalidGrid("no feasible grid point")
    policy = ShipmentPolicy(best[0], max(best[1], 0.0), best[2])
    case = myopic._classify(policy, params.tau, grid.step / 2.0)
    return PolicySolution(policy, case, best_val, lambda_p)


def _row_maxima(params, lambda_p, grid):
    """Each t1 row's best profit over the reference's full rectangle."""
    return np.concatenate([profit.max(axis=1) for *_, profit
                           in _reference_chunks(params, lambda_p, grid)])


def _oracle_row_bounds(params, lambda_p, grid):
    t1_axis, T_axis, t3_cap, _ = myopic._oracle_axes(params, lambda_p, grid)
    return myopic._row_bounds(params, lambda_p, t1_axis,
                              T_axis[:t1_axis.size], t3_cap)


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


#: (params, lambda_p, grid) instances the oracle is checked on.
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


def assert_same(p, lam, grid):
    """The oracle's result is the reference's, and no row bound is below
    that row's best profit in the reference's rectangle.

    A NaN bound (a piece that overflowed) rules out nothing, as the scan
    skips only rows whose bound compares below the incumbent.
    """
    bound = _oracle_row_bounds(p, lam, grid)
    maxima = _row_maxima(p, lam, grid)
    assert bound.shape == maxima.shape
    assert not (bound < maxima).any()
    assert grid_search_policy(p, lam, grid) == \
        _reference_grid_search(p, lam, grid)


class TestBandScan:
    """The oracle returns exactly what the full-rectangle scan returns,
    also where it skips the rows its bounds rule out."""

    def test_criterion_4_draws(self):
        for p, lam, grid in _criterion_4_draws(30):
            assert_same(p, lam, grid)

    @pytest.mark.parametrize("name", sorted(BAND_CASES))
    def test_edge_grids(self, name):
        assert_same(*BAND_CASES[name])

    def test_ties_across_chunks_go_to_the_first_row(self, monkeypatch):
        # Without regular demand the profit depends on T alone, so every t1
        # row ties at the best T; the scan must keep t1 = 0.
        monkeypatch.setattr(myopic, "_ORACLE_CHUNK", 1)
        p, lam, grid = params(lambda_r=0.0), 450.0, GridSpec(step=0.05)
        assert_same(p, lam, grid)
        assert grid_search_policy(p, lam, grid).policy.t1 == 0.0

    @pytest.mark.parametrize("name, extra, feasible",
                             [("t_max-in-slack", 0, False),
                              ("t_max-in-tolerance", 1, True)],
                             ids=["t_max-in-slack", "t_max-in-tolerance"])
    def test_t_max_edges_exist(self, name, extra, feasible):
        # Each t_max case tests something only if its premise holds: some
        # point of the full rectangle with t2 = n_phase*step is infeasible,
        # or some point with t2 = (n_phase + 1)*step is feasible.
        p, lam, grid = BAND_CASES[name]
        t1_axis, T_axis, t3_cap, t_max = myopic._oracle_axes(p, lam, grid)
        ok = myopic._largest_t3(t1_axis[:, None], T_axis, t3_cap, t_max)[2]
        # t2 in steps where t3 is capped: T index + 1 - t1 index - n_t3.
        n_phase, n_t3 = t1_axis.size - 1, round(t3_cap / grid.step)
        t2_steps = (np.arange(T_axis.size)[None, :] + 1
                    - np.arange(t1_axis.size)[:, None] - n_t3)
        edge = ok[t2_steps == n_phase + extra]
        assert edge.any() if feasible else not edge.all()


def _powers(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def small_grids(draw):
    """A random market, premium rate and grid of at most 201 t1 rows.

    The grid's t_max is either derived or an explicit multiple (up to 50)
    of the derived bound; tau lies between one step and t_max.
    """
    lam_r = draw(st.just(0.0) | _powers(-2, 3))
    lam = draw(st.sampled_from([0.0, 1e-300, 1e-12, 1e-6]) | _powers(-3, 4))
    assume(lam > 0 or lam_r > 0)
    K, h, r = draw(_powers(-6, 4)), draw(_powers(-1, 1)), draw(_powers(-1, 2))
    rate = lam if lam > 0 else lam_r
    root = 2.0 * math.sqrt(2.0 * K / (h * max(rate, EPS_NUM)))
    scale = draw(st.none() | st.floats(1.0, 50.0))
    rows = draw(st.integers(2, 200))
    step = root * (scale or 1.0) / rows
    tau = step * draw(st.floats(1.0, rows))
    grid = GridSpec(step=step, t_max=None if scale is None else scale * root)
    return params(r=r, K=K, h=h, tau=tau, lambda_r=lam_r), lam, grid


class TestRowBound:
    """The row bounds hold on random markets, are tight, and prune."""

    @settings(max_examples=200, deadline=None)
    @given(small_grids(), st.sampled_from([myopic._ORACLE_CHUNK, 1, 3, 64]))
    @example((params(lambda_r=0.0), 450.0, GridSpec(step=0.05)), 1)
    @example((params(K=1e-6, tau=0.5), 1e-12, GridSpec(step=0.05)), 64)
    @example((params(tau=3.0), 0.0, GridSpec(step=0.1, t_max=40.0)), 3)
    def test_random_markets(self, case, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(myopic, "_ORACLE_CHUNK", chunk)
            assert_same(*case)

    def test_tight_without_regular_demand(self):
        # With lambda_r = 0 the profit depends on T alone, and the best
        # cycle sqrt(2K/(h lambda_p)) = 2 is the grid's 40th T.  Each row
        # that reaches it attains its bound up to the margin; without the
        # margin, rounding puts some rows' grid profit above the bound.
        p, step = params(K=181.0, h=6.7, lambda_r=0.0), 0.05
        lam = 2.0 * p.K / (p.h * 2.0 * 2.0)
        assert math.sqrt(2.0 * p.K / (p.h * lam)) == 40 * step
        grid = GridSpec(step=step)
        bound = _oracle_row_bounds(p, lam, grid)
        maxima = _row_maxima(p, lam, grid)
        assert (bound >= maxima).all()
        reach = myopic._oracle_axes(p, lam, grid)[0] < 40 * step
        scale = p.r * lam + p.h * lam + p.K / 2.0
        assert (bound[reach] - maxima[reach] <= 2e-9 * scale).all()

    def test_most_rows_are_skipped(self, monkeypatch):
        # Every chunk the scan evaluates passes its t1 column to
        # _largest_t3 for the feasibility mask; count those rows.
        evaluated = []
        largest_t3 = myopic._largest_t3

        def counting(t1, T, t3_cap, t_max):
            evaluated.append(np.size(t1))
            return largest_t3(t1, T, t3_cap, t_max)

        monkeypatch.setattr(myopic, "_largest_t3", counting)
        p, lam, grid = _criterion_4_draws(1)[0]
        grid_search_policy(p, lam, grid)
        evaluated.pop()  # the winner's (t2, t3), not a scanned row
        rows = myopic._oracle_axes(p, lam, grid)[0].size
        assert sum(evaluated) < 0.05 * rows


class TestAxisBudget:
    """A T axis past ``MAX_AXIS_POINTS`` is refused before it is allocated."""

    @pytest.mark.parametrize("grid", [GridSpec(step=1e-7),
                                      GridSpec(step=1e-300),
                                      GridSpec(step=0.01, t_max=1e308)])
    def test_fine_grid_is_refused_without_allocating(self, grid):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidGrid, match=f"step={grid.step:g} "):
                grid_search_policy(params(), 450.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unpruned_scan_stays_in_chunks(self):
        # At lambda_p = 0 every row bound is inf, so the whole 4001 x 9400
        # rectangle (300 MB as one array) is scanned; only the chunking
        # keeps the scan's memory bounded.
        p, grid = params(tau=7.0, K=4000.0), GridSpec(step=0.005, t_max=20.0)
        tracemalloc.start()
        try:
            grid_search_policy(p, 0.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_criterion_4_grids_fit(self):
        # The largest criterion-4 T axis: tau 7, K 4000, lambda_p 30.
        p = params(K=4000.0, tau=7.0)
        T_axis = myopic._oracle_axes(p, 30.0, GridSpec(step=0.005))[1]
        assert T_axis.size < 8000 < myopic.MAX_AXIS_POINTS
