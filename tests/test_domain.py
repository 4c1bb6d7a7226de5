from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from womops import (EPS_NUM, MDT, NPS, CustomerResponse, DomainError,
                    FeeFamily, FeeModel, InvalidParams, InvalidPolicy,
                    MarketParams, ShipmentPolicy, SignalKind, SignalSpec,
                    cycle_profit, potential_market, profit_rate,
                    profit_rate_with_fees, respond, signal, signal_value)
from womops.domain import response

LIN = FeeModel(FeeFamily.LINEAR, 100, 1, 5)
LOG = FeeModel(FeeFamily.LOGARITHMIC, 20, 101, 5)
PARAMS = MarketParams(r=8, K=2000, h=4, tau=2, lambda_r=50, M=30,
                      f_min=10, f_max=100)


class TestPotentialMarket:
    def test_linear_at_reference_fee(self):
        assert potential_market(LIN, 10) == pytest.approx(450.0, abs=1e-12)

    def test_logarithmic_uses_natural_log(self):
        assert potential_market(LOG, 10) == pytest.approx(20 * math.log(91) * 5,
                                                          abs=1e-9)
        assert potential_market(LOG, 10) == pytest.approx(451.09, abs=0.005)

    def test_linear_zero_at_fee_cap(self):
        assert potential_market(LIN, 100) == 0.0

    def test_log_zero_at_domain_edge(self):
        assert potential_market(LOG, 100) == 0.0

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            potential_market(LIN, 101)
        with pytest.raises(DomainError):
            potential_market(LOG, 100.5)


class TestSignal:
    def test_mdt_partial(self):
        pol = ShipmentPolicy(0, 0, 1.49)
        assert signal(MDT, pol, 2.0) == pytest.approx(0.745)

    def test_nps_is_one_without_fast_service(self):
        pol = ShipmentPolicy(0, 0.57, 1.0)
        assert signal(NPS, pol, 1.0) == 1.0

    def test_mdt_full_when_realized_equals_declared(self):
        assert signal(MDT, ShipmentPolicy(0.3, 0, 2.0), 2.0) == 1.0

    def test_weighted_blend(self):
        spec = SignalSpec(SignalKind.WEIGHTED,
                          ((SignalKind.MDT, 0.25), (SignalKind.NPS, 0.75)))
        pol = ShipmentPolicy(1.0, 0.0, 1.0)
        expected = 0.25 * (1.0 / 2.0) + 0.75 * (1.0 / 2.0)
        assert signal(spec, pol, 2.0) == pytest.approx(expected)

    def test_zero_cycle_rejected_at_construction(self):
        with pytest.raises(InvalidPolicy):
            ShipmentPolicy(0, 0, 0)

    def test_negative_phase_rejected_at_construction(self):
        with pytest.raises(InvalidPolicy, match="nonnegative"):
            ShipmentPolicy(-1, 0, 1)

    def test_mdt_beyond_declared_rejected(self):
        with pytest.raises(InvalidPolicy):
            signal(MDT, ShipmentPolicy(0, 0, 3.0), 2.0)

    @given(st.floats(0.1, 5), st.floats(0, 5), st.floats(0, 5),
           st.floats(0.01, 5), st.floats(0.5, 4))
    def test_mdt_scaling_invariance(self, t3, t1, t2, tau, alpha):
        t3 = min(t3, tau)
        pol = ShipmentPolicy(t1, t2, t3)
        scaled = ShipmentPolicy(alpha * t1, alpha * t2, alpha * t3)
        assert signal(MDT, scaled, alpha * tau) == pytest.approx(
            signal(MDT, pol, tau), rel=1e-12)

    @given(st.floats(0.1, 5), st.floats(0, 5), st.floats(0, 5),
           st.floats(0.5, 4))
    def test_nps_scaling_invariance(self, t3, t1, t2, alpha):
        pol = ShipmentPolicy(t1, t2, t3)
        scaled = ShipmentPolicy(alpha * t1, alpha * t2, alpha * t3)
        assert signal(NPS, scaled, 1.0) == pytest.approx(
            signal(NPS, pol, 1.0), rel=1e-12)


class TestRespond:
    def test_linear_sensitivity_reference_value(self):
        theta = 1.4907119849998598 / 2
        assert respond(CustomerResponse(1), LIN, 10, theta) == pytest.approx(
            335.41, abs=0.005)

    def test_cubic_sensitivity_reference_value(self):
        theta = 1.4907119849998598 / 2
        assert respond(CustomerResponse(3), LIN, 10, theta) == pytest.approx(
            186.34, abs=0.005)

    def test_full_signal_returns_potential(self):
        for c2 in (0.0, 0.5, 1.0, 3.0):
            assert respond(CustomerResponse(c2), LIN, 10, 1.0) == \
                potential_market(LIN, 10)

    def test_zero_power_zero_is_one(self):
        assert respond(CustomerResponse(0), LIN, 10, 0.0) == 450.0

    def test_theta_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            respond(CustomerResponse(1), LIN, 10, 1.5)

    def test_nan_theta_rejected(self):
        with pytest.raises(DomainError, match="outside"):
            response(450.0, 1.0, math.nan)
        with pytest.raises(DomainError, match="outside"):
            respond(CustomerResponse(1), LIN, 10, math.nan)

    @given(st.floats(0.01, 0.99), st.floats(0, 5), st.floats(0, 5))
    def test_nonincreasing_in_sensitivity(self, theta, c2a, c2b):
        lo, hi = sorted((c2a, c2b))
        assert respond(CustomerResponse(hi), LIN, 10, theta) <= \
            respond(CustomerResponse(lo), LIN, 10, theta) + EPS_NUM

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0.01, 5))
    def test_nondecreasing_in_signal(self, ta, tb, c2):
        lo, hi = sorted((ta, tb))
        assert respond(CustomerResponse(c2), LIN, 10, lo) <= \
            respond(CustomerResponse(c2), LIN, 10, hi) + EPS_NUM


class TestProfitRate:
    def test_reference_point_term_by_term(self):
        # r*lam_p + r*lam_r - h*lam_p*T/2 - 0 - K/T with T = 2:
        # 3600 + 400 - 1800 - 1000 = 1200 exactly.
        pol = ShipmentPolicy(0, 0, 2)
        assert profit_rate(PARAMS, pol, 450) == pytest.approx(1200.0, abs=1e-9)

    def test_no_premium_terms_at_zero_demand(self):
        pol = ShipmentPolicy(0, 0, PARAMS.tau)
        expected = PARAMS.r * PARAMS.lambda_r - PARAMS.K / PARAMS.tau
        assert profit_rate(PARAMS, pol, 0) == pytest.approx(expected, abs=1e-9)

    def test_phase1_inventory_term_strictly_positive(self):
        pol = ShipmentPolicy(0.5, 0, 2)
        T = pol.cycle_length
        without_term = (PARAMS.r * 100 + PARAMS.r * PARAMS.lambda_r * (0.5 + 2) / T
                        - PARAMS.h * 100 * T / 2 - PARAMS.K / T)
        term = without_term - profit_rate(PARAMS, pol, 100)
        assert term == pytest.approx(PARAMS.h * PARAMS.lambda_r * 0.25 / (2 * T))
        assert term > 0

    def test_fee_inclusive_reference_points(self):
        pol = ShipmentPolicy(0, 0, 1.5)
        assert profit_rate_with_fees(PARAMS, LIN, pol, 10, 450) == pytest.approx(
            1346.67, abs=0.005)
        assert profit_rate_with_fees(PARAMS, LIN, ShipmentPolicy(0, 0, 2.0),
                                     10, 450) == pytest.approx(1230.00, abs=1e-9)

    def test_priced_out_market_reduces_to_regular_only(self):
        pol = ShipmentPolicy(0.4, 0.1, 1.5)
        assert profit_rate_with_fees(PARAMS, LIN, pol, 100, 0) == pytest.approx(
            profit_rate(PARAMS, pol, 0), abs=1e-12)

    @settings(max_examples=60)
    @given(st.floats(0, 500), st.floats(0, 3), st.floats(0, 3),
           st.floats(0.05, 3), st.floats(10, 100))
    def test_fee_revenue_decomposition(self, lam, t1, t2, t3, fee):
        pol = ShipmentPolicy(t1, t2, t3)
        base = profit_rate(PARAMS, pol, lam)
        gap = profit_rate_with_fees(PARAMS, LIN, pol, fee, lam) - base
        # Subtracting two large profit values loses up to |base|*ulp.
        assert gap == pytest.approx(fee * lam / (LIN.delta * PARAMS.M),
                                    abs=1e-10 * max(1.0, abs(base)))


SPECS = (MDT, NPS,
         SignalSpec(SignalKind.WEIGHTED,
                    ((SignalKind.MDT, 0.3), (SignalKind.NPS, 0.7))),
         SignalSpec(SignalKind.WEIGHTED,
                    ((SignalKind.MDT, 0.5000000005), (SignalKind.NPS, 0.5))),
         SignalSpec(SignalKind.WEIGHTED,
                    ((SignalKind.NPS, 0.4999999995), (SignalKind.MDT, 0.5))))


def random_cycles(seed: int, n: int = 2000):
    """(t1, t2, t3, T, tau) arrays with t3 <= tau and T > 0; some phases 0."""
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.2, 7.0, n)
    t1, t2 = rng.uniform(0.0, 12.0, (2, n)) * (rng.random((2, n)) < 0.7)
    t3 = tau * rng.uniform(0.0, 1.0, n)
    t3[::7] = tau[::7]
    t3[3::11], t1[3::11] = 0.0, 1.5
    t2[1::13] = 0.0
    return t1, t2, t3, t1 + t2 + t3, tau


def per_kind_theta(spec, t2, t3, T, tau):
    """theta as one formula per signal kind gives it: a weighted signal
    adds each component's term in the spec's order and divides by the
    weights' sum when that is above 1."""
    formulas = {SignalKind.MDT: lambda: t3 / tau,
                SignalKind.NPS: lambda: (t2 + t3) / T}
    if spec.kind is not SignalKind.WEIGHTED:
        return formulas[spec.kind]()
    theta = total = 0.0
    for kind, weight in spec.weights:
        theta = theta + weight * formulas[kind]()
        total = total + weight
    return theta / total if total > 1.0 else theta


def random_weighted_specs(seed: int, n: int = 200):
    """Weighted specs naming each kind at most once, in either order, with
    weight sums up to EPS_NUM from 1 on either side."""
    rng = np.random.default_rng(seed)
    specs = [SignalSpec(SignalKind.WEIGHTED, ((SignalKind.MDT, 1.0),)),
             SignalSpec(SignalKind.WEIGHTED, ((SignalKind.NPS, 1.0),))]
    for _ in range(n):
        w = float(rng.uniform(0.0, 1.0))
        rest = (1.0 - w) * (1.0 + float(rng.uniform(-0.9, 0.9)) * EPS_NUM)
        pairs = ((SignalKind.MDT, w), (SignalKind.NPS, rest))
        specs.append(SignalSpec(SignalKind.WEIGHTED,
                                pairs[::-1] if rng.random() < 0.5 else pairs))
    return specs


class TestSignalWeights:
    """A spec's shares give theta as the per-kind formulas did."""

    def test_shares_give_the_per_kind_bits(self):
        t1, t2, t3, T, tau = random_cycles(8)
        specs = SPECS + tuple(random_weighted_specs(9))
        assert any(spec.shares[2] > 1.0 for spec in specs)
        for spec in specs:
            want = per_kind_theta(spec, t2, t3, T, tau)
            assert signal_value(spec, t2, t3, T, tau).tobytes() == \
                want.tobytes()
            for i in range(0, T.size, 97):
                args = (float(t2[i]), float(t3[i]), float(T[i]),
                        float(tau[i]))
                assert float.hex(signal_value(spec, *args)) == \
                    float.hex(per_kind_theta(spec, *args))

    def test_elementary_kinds_share_constant_weights(self):
        assert MDT.shares == (1.0, 0.0, 1.0)
        assert NPS.shares == (0.0, 1.0, 1.0)
        assert SignalSpec(SignalKind.MDT).shares is MDT.shares
        assert SignalSpec(SignalKind.NPS).shares is NPS.shares

    def test_shares_are_not_an_argument(self):
        with pytest.raises(TypeError):
            SignalSpec(SignalKind.MDT, (), (0.5, 0.5, 1.0))
        assert "shares" not in repr(MDT)
        assert not hasattr(MDT, "__dict__")

    def test_zero_mdt_weight_skips_the_delivery_time_check(self):
        # Only a positive MDT weight makes t3 <= tau a precondition.
        spec = SignalSpec(SignalKind.WEIGHTED,
                          ((SignalKind.MDT, 0.0), (SignalKind.NPS, 1.0)))
        pol = ShipmentPolicy(1.0, 0.0, 3.0)
        assert signal(spec, pol, 2.0) == signal(NPS, pol, 2.0) == 0.75
        with pytest.raises(InvalidPolicy):
            signal(SignalSpec(SignalKind.WEIGHTED, ((SignalKind.MDT, 1e-12),
                                                    (SignalKind.NPS, 1.0))),
                   pol, 2.0)

    def test_a_kind_named_twice_sums_its_weights(self):
        spec = SignalSpec(SignalKind.WEIGHTED, (
            (SignalKind.MDT, 0.25), (SignalKind.NPS, 0.5),
            (SignalKind.MDT, 0.25)))
        assert spec.shares == (0.5, 0.5, 1.0)
        assert signal_value(spec, 1.0, 1.0, 4.0, 2.0) == \
            0.5 * (1.0 / 2.0) + 0.5 * (2.0 / 4.0)
        # Above a unit sum, a full cycle's theta is 1, not 1 + 1 ulp.
        rng = np.random.default_rng(10)
        for _ in range(500):
            a, b, c = rng.uniform(0.0, 1.0, 3) / 3.0
            spec = SignalSpec(SignalKind.WEIGHTED, (
                (SignalKind.MDT, a), (SignalKind.NPS, b),
                (SignalKind.MDT, c), (SignalKind.NPS, 1.0 + 5e-10 - a - b - c)))
            assert signal_value(spec, 0.0, 2.0, 2.0, 2.0) <= 1.0


class TestSharedFormulas:
    """signal_value and cycle_profit serve floats (every caller in the
    package) and arrays (the tests' dense scans) with one body each."""

    @pytest.mark.parametrize("spec", SPECS, ids=["MDT", "NPS", "weighted",
                                                  "weights-above-1",
                                                  "weights-below-1"])
    def test_signal_arrays_give_the_bits_of_floats(self, spec):
        t1, t2, t3, T, tau = random_cycles(3)
        theta = signal_value(spec, t2, t3, T, tau)
        want = [signal_value(spec, float(t2[i]), float(t3[i]),
                             float(t1[i]) + float(t2[i]) + float(t3[i]),
                             float(tau[i]))
                for i in range(T.size)]
        assert {type(w) for w in want} == {float}
        assert theta.tobytes() == np.array(want).tobytes()
        assert np.all((theta >= 0.0) & (theta <= 1.0))

    @pytest.mark.parametrize("c2", [0, 0.1, 0.5, 1, 1.7, 2, 3])
    def test_array_power_is_numpy_power(self, c2):
        # A dense scan raises theta to c2 with ``**``; on arrays that is
        # np.power bit for bit (Python floats use the C library's pow,
        # which can differ in the last bit).
        theta = signal_value(NPS, *random_cycles(6)[1:])
        assert (theta ** c2).tobytes() == np.power(theta, c2).tobytes()

    def test_profit_arrays_give_the_bits_of_floats(self):
        t1, _, t3, T, _ = random_cycles(4)
        rng = np.random.default_rng(5)
        lam = rng.uniform(0.0, 900.0, T.size) * (rng.random(T.size) < 0.9)
        fee_rate = rng.uniform(0.0, 1.0, T.size)
        got = cycle_profit(PARAMS, lam, fee_rate, t1, t3, T)
        want = [cycle_profit(PARAMS, float(lam[i]), float(fee_rate[i]),
                             float(t1[i]), float(t3[i]), float(T[i]))
                for i in range(T.size)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_scalar_api_delegates(self):
        pol = ShipmentPolicy(0.4, 0.1, 1.5)
        spec = SPECS[3]
        assert signal(spec, pol, 2.0) == signal_value(spec, 0.1, 1.5, 2.0, 2.0)
        assert profit_rate(PARAMS, pol, 300.0) == cycle_profit(
            PARAMS, 300.0, 0.0, 0.4, 1.5, 2.0)
        assert profit_rate_with_fees(PARAMS, LIN, pol, 40.0, 300.0) == \
            cycle_profit(PARAMS, 300.0, 40.0 / (LIN.delta * PARAMS.M),
                         0.4, 1.5, 2.0)

    def test_weighted_theta_over_unit_weight_sum_stays_in_range(self):
        # Weights summing to 1 + 5e-10 would give theta = 1 + 5e-10 at a
        # full cycle, and theta ** c2 would overflow for a large c2.
        spec = SPECS[3]
        assert signal_value(spec, 0.0, 2.0, 2.0, 2.0) == 1.0
        assert signal_value(spec, 0.0, 2.0, 2.0, 2.0) ** 1e13 == 1.0
        # Exactly unit weight sums are not rescaled.
        assert signal_value(SPECS[2], 1.0, 1.0, 3.0, 2.0) == \
            0.0 + 0.3 * (1.0 / 2.0) + 0.7 * (2.0 / 3.0)

    @pytest.mark.parametrize("fm, edge", [(LIN, 100.0), (LOG, 100.0)],
                             ids=["linear", "logarithmic"])
    def test_members_clamp_inside_the_slack_and_raise_beyond(self, fm, edge):
        assert fm.members(edge) == 0.0
        assert fm.members(edge + 0.5e-9) == 0.0
        assert fm.in_domain(edge + 0.5e-9)
        with pytest.raises(DomainError):
            fm.members(edge + 2e-9)
        assert not fm.in_domain(edge + 2e-9)
        assert not fm.in_domain(math.nan)
        assert fm.members(edge - 1.0) > 0.0


class TestValidation:
    def test_market_invariants(self):
        with pytest.raises(InvalidParams):
            MarketParams(r=0, K=1, h=1, tau=1, lambda_r=0, M=1, f_min=0, f_max=1)
        with pytest.raises(InvalidParams):
            MarketParams(r=1, K=1, h=1, tau=1, lambda_r=0, M=1, f_min=5, f_max=1)
        with pytest.raises(InvalidParams, match="tau"):
            MarketParams(r=1, K=1, h=1, tau=0, lambda_r=0, M=1, f_min=0, f_max=1)

    def test_weighted_signal_weights_must_sum_to_one(self):
        with pytest.raises(InvalidParams):
            SignalSpec(SignalKind.WEIGHTED, ((SignalKind.MDT, 0.5),
                                             (SignalKind.NPS, 0.6)))

    @pytest.mark.parametrize("weights, message", [
        (((SignalKind.WEIGHTED, 1.0),), "elementary"),
        (((SignalKind.MDT, 1.5), (SignalKind.NPS, -0.5)), "nonnegative"),
        (((SignalKind.MDT, math.nan), (SignalKind.NPS, 1.0)), "nonnegative")])
    def test_weighted_signal_components(self, weights, message):
        with pytest.raises(InvalidParams, match=message):
            SignalSpec(SignalKind.WEIGHTED, weights)

    def test_negative_demand_has_no_profit_rate(self):
        with pytest.raises(InvalidParams, match="lambda_p"):
            profit_rate(PARAMS, ShipmentPolicy(0, 0, 1), -1.0)

    def test_negative_sensitivity_rejected(self):
        with pytest.raises(InvalidParams):
            CustomerResponse(-0.1)

    def test_fee_model_needs_positive_order_rate(self):
        with pytest.raises(InvalidParams):
            FeeModel(FeeFamily.LINEAR, 100, 1, 0)

    def test_logarithmic_family_needs_nonnegative_scale(self):
        # a < 0 would make N(F) = a ln(b - F) negative inside the domain.
        with pytest.raises(InvalidParams):
            FeeModel(FeeFamily.LOGARITHMIC, -20, 101, 5)
        assert FeeModel(FeeFamily.LOGARITHMIC, 0, 101, 5).members(10) == 0.0
