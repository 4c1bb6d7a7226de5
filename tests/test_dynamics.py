from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womops import (MDT, NPS, CustomerResponse, FeeFamily, FeeModel,
                    InvalidParams, LongRunKind, MarketParams,
                    UnsupportedSignal, potential_market, predict_long_run,
                    simulate, step, trace_rows)
from womops import dynamics
from womops.dynamics import MAX_SIM_ITERS, LongRunClass, _classify_sequence
from womops.reference import T7_TRACE, T8_TRACE

LIN = FeeModel(FeeFamily.LINEAR, 100, 1, 5)


def params(tau=2.0, K=2000.0):
    return MarketParams(r=8, K=K, h=4, tau=tau, lambda_r=50, M=30,
                        f_min=10, f_max=100)


class TestStep:
    def test_linear_sensitivity_round(self):
        policy, nxt = step(params(), LIN, CustomerResponse(1), MDT, 10, 450.0)
        assert policy.t3 == pytest.approx(1.4907, abs=5e-5)
        assert nxt == pytest.approx(335.41, abs=0.005)

    def test_cubic_sensitivity_round(self):
        _, nxt = step(params(), LIN, CustomerResponse(3), MDT, 10, 450.0)
        assert nxt == pytest.approx(186.34, abs=0.005)

    def test_small_market_jumps_to_potential_and_stays(self):
        p = params(tau=1.0)  # threshold 2K/(h tau^2) = 1000 >= c1 = 450
        for seed in (0.0, 200.0, 450.0):
            _, nxt = step(p, LIN, CustomerResponse(1), MDT, 10, seed)
            assert nxt == 450.0

    def test_seed_above_potential_rejected(self):
        with pytest.raises(InvalidParams):
            step(params(), LIN, CustomerResponse(1), MDT, 10, 451.0)


class TestSimulate:
    def test_converging_reference_trace(self):
        trace = simulate(params(), LIN, CustomerResponse(1), MDT, 10,
                         seed_lambda_p=450.0, max_iters=10, tol=1e-2,
                         min_iters=10)
        assert len(trace.points) == 11
        for point, lam, t3 in zip(trace.points, T7_TRACE["lambda_p"],
                                  T7_TRACE["t3"]):
            assert point.lambda_p == pytest.approx(lam, abs=0.02)
            assert point.policy.t3 == pytest.approx(t3, abs=0.01)
            assert point.policy.t1 == 0.0 and point.policy.t2 == 0.0

    def test_converging_classification_with_enough_iterations(self):
        trace = simulate(params(), LIN, CustomerResponse(1), MDT, 10,
                         seed_lambda_p=450.0, max_iters=40, tol=1e-2)
        assert trace.classification.kind is LongRunKind.CONVERGED_INTERIOR
        assert trace.classification.values == (pytest.approx(370.00, abs=0.1),)

    def test_cycling_reference_trace(self):
        trace = simulate(params(), LIN, CustomerResponse(3), MDT, 10,
                         seed_lambda_p=450.0, max_iters=10, tol=1e-2,
                         min_iters=10)
        lams = [p.lambda_p for p in trace.points]
        for got, want in zip(lams, T8_TRACE["lambda_p"]):
            assert got == pytest.approx(want, abs=0.02)
        for point, t1 in zip(trace.points, T8_TRACE["t1"]):
            assert point.policy.t1 == pytest.approx(t1, abs=0.01)
        cls = trace.classification
        assert cls.kind is LongRunKind.CYCLE2
        assert cls.values == (pytest.approx(450.00, abs=0.02),
                              pytest.approx(186.34, abs=0.02))

    @pytest.mark.parametrize("c2, max_iters, kind", [
        (3, 10, LongRunKind.CYCLE2),
        (1, 40, LongRunKind.CONVERGED_INTERIOR),
        (1, 3, LongRunKind.UNDETERMINED),
        (1, 0, LongRunKind.UNDETERMINED)])
    def test_settled_values(self, c2, max_iters, kind):
        trace = simulate(params(), LIN, CustomerResponse(c2), MDT, 10,
                         seed_lambda_p=450.0, max_iters=max_iters, tol=1e-2)
        cls = trace.classification
        assert cls.kind is kind
        if kind is LongRunKind.UNDETERMINED:
            assert trace.settled == (trace.points[-1].lambda_p,)
        else:
            assert trace.settled == cls.values

    def test_small_market_converges_in_one_step(self):
        p = params(tau=1.0)
        trace = simulate(p, LIN, CustomerResponse(1), MDT, 10,
                         seed_lambda_p=100.0, max_iters=50, tol=1e-4)
        assert trace.points[1].lambda_p == 450.0
        assert trace.classification.kind is LongRunKind.CONVERGED_TO_POTENTIAL
        assert trace.classification.values == (450.0,)

    @given(st.floats(0, 450))
    @settings(max_examples=25, deadline=None)
    def test_insensitive_customers_fill_market_in_one_step(self, seed):
        trace = simulate(params(), LIN, CustomerResponse(0), MDT, 10,
                         seed_lambda_p=seed, max_iters=10, tol=1e-6)
        assert trace.points[1].lambda_p == 450.0
        assert trace.classification.kind is LongRunKind.CONVERGED_TO_POTENTIAL

    def test_absorption_below_threshold(self):
        # c1 <= 2K/(h tau^2): once demand is under the threshold every later
        # iterate equals the potential.
        p = params(tau=1.2)  # threshold = 694.4 >= 450
        trace = simulate(p, LIN, CustomerResponse(2), MDT, 10,
                         seed_lambda_p=50.0, max_iters=30, tol=1e-9,
                         min_iters=5)
        assert all(pt.lambda_p == 450.0 for pt in trace.points[1:])

    def test_error_monotone_once_past_threshold(self):
        p = params()
        (limit,) = predict_long_run(p, LIN, CustomerResponse(1), MDT,
                                    10).values
        trace = simulate(p, LIN, CustomerResponse(1), MDT, 10,
                         seed_lambda_p=450.0, max_iters=30, tol=1e-9,
                         min_iters=30)
        errors = [abs(pt.lambda_p - limit) for pt in trace.points
                  if pt.lambda_p > p.demand_threshold]
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_seed_at_fixed_point_is_constant(self):
        p = params()
        (limit,) = predict_long_run(p, LIN, CustomerResponse(1), MDT,
                                    10).values
        trace = simulate(p, LIN, CustomerResponse(1), MDT, 10,
                         seed_lambda_p=limit, max_iters=5, tol=1e-9,
                         min_iters=5)
        for pt in trace.points:
            assert pt.lambda_p == pytest.approx(limit, abs=1e-9)

    def test_zero_iterations_gives_seed_only_trace(self):
        trace = simulate(params(), LIN, CustomerResponse(1), MDT, 10,
                         seed_lambda_p=450.0, max_iters=0)
        assert len(trace.points) == 1
        assert trace.classification.kind is LongRunKind.UNDETERMINED

    def test_iteration_budget_rejected_before_any_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("no iteration may run")

        monkeypatch.setattr(dynamics, "step", no_step)
        with pytest.raises(InvalidParams, match="max_iters"):
            simulate(params(), LIN, CustomerResponse(1), MDT, 10,
                     max_iters=MAX_SIM_ITERS + 1)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidParams, match="tol"):
            simulate(params(), LIN, CustomerResponse(1), MDT, 10, tol=-1)

    def test_default_seed_is_potential_market(self):
        trace = simulate(params(), LIN, CustomerResponse(1), MDT, 10,
                         max_iters=0)
        assert trace.points[0].lambda_p == potential_market(LIN, 10)

    def test_trace_rows_layout(self):
        trace = simulate(params(), LIN, CustomerResponse(1), MDT, 10,
                         max_iters=2, min_iters=2)
        rows = trace_rows(trace)
        assert rows[0][0] == 0 and len(rows[0]) == 6


class TestPrediction:
    def test_interior_limit_value(self):
        pred = predict_long_run(params(), LIN, CustomerResponse(1), MDT, 10)
        assert pred.kind is LongRunKind.CONVERGED_INTERIOR
        (limit,) = pred.values
        assert limit == pytest.approx(450 * (250 / 450) ** (1 / 3), rel=1e-12)
        assert limit == pytest.approx(370.00, abs=0.1)

    def test_cycle_values(self):
        pred = predict_long_run(params(), LIN, CustomerResponse(3), MDT, 10)
        assert pred.kind is LongRunKind.CYCLE2
        high, low = pred.values
        assert high == 450.0
        assert low == pytest.approx(450 * (250 / 450) ** 1.5, rel=1e-12)
        assert low == pytest.approx(186.34, abs=0.005)

    def test_threshold_boundary_reaches_potential(self):
        # c1 = 2K/(h tau^2) exactly: tau = sqrt(2K/(h c1)).
        tau = (2 * 2000 / (4 * 450)) ** 0.5
        pred = predict_long_run(params(tau=tau), LIN, CustomerResponse(1),
                                MDT, 10)
        assert pred.kind is LongRunKind.CONVERGED_TO_POTENTIAL
        assert pred.values == (450.0,)

    def test_insensitive_customers(self):
        pred = predict_long_run(params(), LIN, CustomerResponse(0), MDT, 10)
        assert pred.kind is LongRunKind.CONVERGED_TO_POTENTIAL

    def test_non_mdt_signal_unsupported(self):
        with pytest.raises(UnsupportedSignal):
            predict_long_run(params(), LIN, CustomerResponse(1), NPS, 10)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0]),
           st.sampled_from([0.1, 0.2, 0.5, 1.0, 2.0, 3.0]),
           st.sampled_from([1000.0, 2000.0, 4000.0]))
    def test_simulation_agrees_with_prediction(self, tau, c2, K):
        p = params(tau=tau, K=K)
        pred = predict_long_run(p, LIN, CustomerResponse(c2), MDT, 10)
        tol = 1e-4
        trace = simulate(p, LIN, CustomerResponse(c2), MDT, 10,
                         max_iters=400, tol=tol)
        cls = trace.classification
        assert cls.kind is pred.kind
        for got, want in zip(sorted(cls.values), sorted(pred.values)):
            assert got == pytest.approx(want, abs=10 * tol)


def _reference_classify(lambdas, c1, tol):
    """The full rescan the incremental classifier replaced, kept as its
    reference: the earliest pattern over the whole sequence."""
    n = len(lambdas)
    for k in range(n - 1):
        if abs(lambdas[k + 1] - lambdas[k]) < tol:
            limit = lambdas[k + 1]
            if abs(limit - c1) <= 10.0 * tol:
                return LongRunClass(LongRunKind.CONVERGED_TO_POTENTIAL,
                                    (c1,), tol)
            return LongRunClass(LongRunKind.CONVERGED_INTERIOR, (limit,), tol)
        if (k + 3 < n
                and abs(lambdas[k + 2] - lambdas[k]) < tol
                and abs(lambdas[k + 3] - lambdas[k + 1]) < tol
                and abs(lambdas[k + 1] - lambdas[k]) >= 10.0 * tol):
            pair = (lambdas[k + 2], lambdas[k + 3])
            return LongRunClass(LongRunKind.CYCLE2,
                                (max(pair), min(pair)), tol)
    return LongRunClass(LongRunKind.UNDETERMINED, (), tol)


# Values a few tol apart, so short random sequences converge, cycle and
# damp in every order.
_CLOSE = st.sampled_from([0.0, 5e-5, 1.5e-4, 1e-3, 1.0, 1.00005, 2.0,
                          2.00005, 2.0009])


class TestIncrementalClassification:
    """Fed one value at a time, the classifier matches a full rescan."""

    @staticmethod
    def assert_matches_rescan(lambdas, c1, tol):
        # Every prefix is compared, the first pattern kept as ``simulate``
        # keeps it, so prefixes past it (what min_iters asks for) are
        # covered too.
        cls = None
        for n in range(2, len(lambdas) + 1):
            cls = cls or _classify_sequence(lambdas[:n], c1, tol)
            got = cls or LongRunClass(LongRunKind.UNDETERMINED, (), tol)
            assert got == _reference_classify(lambdas[:n], c1, tol)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_CLOSE, min_size=2, max_size=14),
           st.sampled_from([0.0, 1e-4, 1e-3]))
    def test_close_values(self, lambdas, tol):
        self.assert_matches_rescan(lambdas, 2.0, tol)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 500), min_size=2, max_size=30),
           st.floats(0, 50))
    def test_arbitrary_values(self, lambdas, tol):
        self.assert_matches_rescan(lambdas, 450.0, tol)

    @pytest.mark.parametrize("min_iters", [0, 200])
    @pytest.mark.parametrize("tau,c2", [(5.0, 1.82), (6.0, 1.85)])
    def test_slowly_damped_trajectories_keep_their_label(self, tau, c2,
                                                         min_iters):
        # A known misclassification: these trajectories converge, yet the
        # separation guard lets a two-point cycle through.  The incremental
        # classifier must give the full rescan's answer, fault included.
        tr = simulate(params(tau=tau), LIN, CustomerResponse(c2), MDT, 10,
                      max_iters=1000, tol=1e-4, min_iters=min_iters)
        lambdas = [p.lambda_p for p in tr.points]
        want = _reference_classify(lambdas, lambdas[0], 1e-4)
        assert tr.classification == want
        assert want.kind is LongRunKind.CYCLE2
        self.assert_matches_rescan(lambdas, lambdas[0], 1e-4)
