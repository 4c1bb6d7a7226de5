"""Shared types, profit evaluators and the customer response function.

The operational setting is a repeating shipment cycle of length
``T = t1 + t2 + t3`` with three phases of regular-customer service:

* Phase 1 (length ``t1``): fast service from the local depot,
* Phase 2 (length ``t2``): demand strategically lost,
* Phase 3 (length ``t3``): usual fulfilment within the declared
  maximum delivery time ``tau``.

Premium orders ship immediately in every phase.  Regular customers rate
the service they actually received against what was declared; the scalar
signal ``theta`` in [0, 1] summarizes that gap and drives premium demand
through the response function ``R(theta) = c1(F) * theta**c2``, where
``c1(F) = N(F) * delta`` is the potential premium market at membership
fee ``F``.

Each model formula is written once, here: theta (:func:`signal_value`),
N(F) (:meth:`FeeModel.members`) and the profit rate
(:func:`cycle_profit`).  theta is one formula for every signal kind: a
:class:`SignalSpec` carries its MDT and NPS weights as data
(``shares``), taken once at construction, and the equilibrium search
reads them there too.  theta and the profit rate use arithmetic
operators only, so the same code runs on Python floats and on NumPy
arrays.  No caller in the package passes arrays any more: the
equilibrium search and the scalar API all run on floats.  The tests
still run both formulas on arrays, for dense scans, and hold them to the
floats' bits.

Everything in this module is a pure function of immutable values; all
quantities are double precision.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import DomainError, InvalidParams, InvalidPolicy

#: Absolute tolerance for floating-point comparisons throughout the package.
EPS_NUM = 1e-9


class FeeFamily(enum.Enum):
    """Functional family of the membership count N(F)."""

    LINEAR = "linear"          # N(F) = a - b*F
    LOGARITHMIC = "logarithmic"  # N(F) = a * ln(b - F)


class SignalKind(enum.Enum):
    MDT = "MDT"            # maximum-delivery-time signal, t3 / tau
    NPS = "NPS"            # non-premium-service frequency, (t2 + t3) / T
    WEIGHTED = "weighted"  # convex combination of named signals


@dataclass(frozen=True)
class MarketParams:
    """Exogenous economics and operations constants.

    r: revenue per unit sold; K: fixed cost per shipment; h: holding cost
    per unit per time at the depot; tau: declared maximum delivery time;
    lambda_r: regular demand rate; M: membership duration; f_min/f_max:
    membership-fee bounds.
    """

    r: float
    K: float
    h: float
    tau: float
    lambda_r: float
    M: float
    f_min: float
    f_max: float

    def __post_init__(self) -> None:
        if not (self.r > 0):
            raise InvalidParams("r must be > 0")
        if not (self.K > 0):
            raise InvalidParams("K must be > 0")
        if not (self.h > 0):
            raise InvalidParams("h must be > 0")
        if not (self.tau > 0):
            raise InvalidParams("tau must be > 0")
        if not (self.lambda_r >= 0):
            raise InvalidParams("lambda_r must be >= 0")
        if not (self.M > 0):
            raise InvalidParams("M must be > 0")
        if not (0 <= self.f_min <= self.f_max):
            raise InvalidParams("fee bounds must satisfy 0 <= f_min <= f_max")

    @property
    def demand_threshold(self) -> float:
        """2K / (h tau^2): premium rates above it make the tau constraint slack."""
        return 2.0 * self.K / (self.h * self.tau * self.tau)


@dataclass(frozen=True)
class FeeModel:
    """Membership count family N(F) together with the per-member order rate.

    ``delta`` is the order rate of one premium member, so the potential
    premium market at fee F is ``c1(F) = N(F) * delta``.
    """

    family: FeeFamily
    a: float
    b: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.delta > 0):
            raise InvalidParams("delta must be > 0")
        # a ln(b - F) with a < 0 is negative wherever it is defined.
        if self.family is FeeFamily.LOGARITHMIC and not (self.a >= 0):
            raise InvalidParams("a must be >= 0 for the logarithmic family")

    def in_domain(self, fee: float) -> bool:
        """True when N(fee) is defined and nonnegative (see :meth:`members`)."""
        try:
            self.members(fee)
        except DomainError:
            return False
        return True

    def members(self, fee: float) -> float:
        """N(F), the number of premium members at fee F.

        N must be nonnegative: the linear family needs a - b*F >= 0 and
        the logarithmic one b - F >= 1 (equality prices the premium
        service out entirely).  Inside an ``EPS_NUM`` slack beyond that
        bound N is 0; further out the fee raises DomainError.
        """
        if self.family is FeeFamily.LINEAR:
            count = self.a - self.b * fee
            if count >= -EPS_NUM:
                return max(count, 0.0)
        else:
            room = self.b - fee
            if room >= 1.0 - EPS_NUM:
                return self.a * math.log(max(room, 1.0))
        raise DomainError(f"fee {fee} outside the {self.family.value} domain")


@dataclass(frozen=True)
class ShipmentPolicy:
    """Phase lengths of one shipment cycle; ``T = t1 + t2 + t3 > 0``."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self) -> None:
        if self.t1 < 0 or self.t2 < 0 or self.t3 < 0:
            raise InvalidPolicy("phase lengths must be nonnegative")
        if not (self.t1 + self.t2 + self.t3 > 0):
            raise InvalidPolicy("cycle length must be positive")

    @property
    def cycle_length(self) -> float:
        return self.t1 + self.t2 + self.t3


@dataclass(frozen=True, slots=True)
class SignalSpec:
    """Which service signal premium customers react to.

    ``weights`` is only consulted for the WEIGHTED kind: pairs of
    (component kind, weight) with nonnegative weights summing to one; a
    kind named twice sums its weights.  ``shares`` is derived from them
    at construction: (MDT weight, NPS weight, divisor), the divisor being
    the two weights' sum when it is above 1 and 1 otherwise.  The MDT kind
    has the shares (1, 0, 1) and the NPS kind (0, 1, 1).
    """

    kind: SignalKind
    weights: tuple[tuple[SignalKind, float], ...] = field(default=())
    shares: tuple[float, float, float] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self) -> None:
        if self.kind is SignalKind.WEIGHTED:
            if not self.weights:
                raise InvalidParams("weighted signal needs at least one component")
            mdt = nps = 0.0
            for kind, w in self.weights:
                if kind is SignalKind.WEIGHTED:
                    raise InvalidParams(
                        "weighted components must be elementary signals")
                if not w >= 0:  # NaN fails too
                    raise InvalidParams("signal weights must be nonnegative")
                if kind is SignalKind.MDT:
                    mdt += w
                else:
                    nps += w
            total = mdt + nps
            if abs(total - 1.0) > EPS_NUM:
                raise InvalidParams("signal weights must sum to 1")
            shares = (mdt, nps, max(total, 1.0))
        elif self.weights:
            raise InvalidParams("weights are only meaningful for the weighted kind")
        else:
            shares = _MDT_SHARES if self.kind is SignalKind.MDT else _NPS_SHARES
        object.__setattr__(self, "shares", shares)


_MDT_SHARES = (1.0, 0.0, 1.0)
_NPS_SHARES = (0.0, 1.0, 1.0)
MDT = SignalSpec(SignalKind.MDT)
NPS = SignalSpec(SignalKind.NPS)


@dataclass(frozen=True)
class CustomerResponse:
    """Premium customers' sensitivity to the observed signal.

    ``c2 = 0`` means completely insensitive customers (the response is the
    full potential market for any signal); ``c2 = 1`` is linear sensitivity.
    """

    c2: float

    def __post_init__(self) -> None:
        if not (self.c2 >= 0):
            raise InvalidParams("c2 must be >= 0")


def potential_market(fee_model: FeeModel, fee: float) -> float:
    """c1(F) = N(F) * delta, the premium demand rate capturable at fee F."""
    return fee_model.members(fee) * fee_model.delta


def signal_value(spec: SignalSpec, t2, t3, T, tau):
    """Signal theta of a cycle of length T with Phase-2/3 lengths t2, t3.

    MDT is t3 / tau and NPS (t2 + t3) / T.  theta is the MDT share times
    the one plus the NPS share times the other, over the divisor of
    ``spec.shares``.  Weights may sum to 1 + EPS_NUM; the divisor is then
    their rounded sum, which no rounded sum of terms at most their weights
    exceeds, so theta stays <= 1.  A zero share's term is left out.
    Only ``+ - * /`` are used, so Python floats and arrays alike are
    accepted, and an array gives, element by element, the bits its floats
    give.  No clamping: theta lies in [0, 1] because the callers keep
    t3 <= tau (MDT) and T = t1 + t2 + t3 with nonnegative phases.
    """
    mdt, nps, divisor = spec.shares
    theta = mdt * (t3 / tau) if mdt else 0.0
    if nps:
        theta = theta + nps * ((t2 + t3) / T)
    return theta / divisor


def signal(spec: SignalSpec, policy: ShipmentPolicy, tau: float) -> float:
    """Service signal emitted by one cycle of ``policy``; a scalar in [0, 1].

    MDT compares the realized worst regular delivery time against the
    declared one (t3 / tau); NPS is the fraction of the cycle in which
    regular customers do not receive fast service ((t2 + t3) / T).  When
    the MDT share is positive, the precondition t3 <= tau is enforced
    here up to float slack.
    """
    if spec.shares[0] > 0 and policy.t3 > tau * (1.0 + 1e-12):
        raise InvalidPolicy(f"t3={policy.t3} exceeds declared tau={tau}")
    return signal_value(spec, policy.t2, policy.t3, policy.cycle_length, tau)


def response(c1: float, c2: float, theta: float) -> float:
    """c1 * theta**c2 for a signal ``theta`` checked to lie in [0, 1].

    :func:`respond` at a potential market ``c1`` that the caller has
    already taken; 0**0 is 1.
    """
    if not -EPS_NUM <= theta <= 1.0 + EPS_NUM:  # NaN fails too
        raise DomainError(f"signal value {theta} outside [0, 1]")
    theta = min(max(theta, 0.0), 1.0)
    return c1 * theta ** c2


def respond(resp: CustomerResponse, fee_model: FeeModel, fee: float,
            theta: float) -> float:
    """Premium demand realized from signal ``theta``: c1(F) * theta**c2.

    0**0 is defined as 1 so that c2 = 0 always returns the full potential
    market.
    """
    return response(potential_market(fee_model, fee), resp.c2, theta)


def cycle_profit(params: MarketParams, lambda_p, fee_rate, t1, t3, T):
    """Average profit per unit time of a cycle at premium rate ``lambda_p``.

    Revenue from premium orders (r plus the fee revenue ``fee_rate`` per
    order) and from regulars served in Phases 1 and 3, less depot holding
    for premium stock (lambda_p*T/2 on average), holding for the Phase-1
    regular stock (lambda_r*t1^2/(2T)), and the shipment cost K amortized
    over the cycle.  Like :func:`signal_value`, it takes floats or arrays.
    """
    return (lambda_p * (params.r + fee_rate - params.h * T / 2.0)
            + params.r * params.lambda_r * (t1 + t3) / T
            - params.h * params.lambda_r * t1 * t1 / (2.0 * T)
            - params.K / T)


def checked_profit(params: MarketParams, policy: ShipmentPolicy,
                   lambda_p: float, fee_rate: float) -> float:
    """:func:`cycle_profit` of ``policy`` at a checked ``lambda_p >= 0``.

    ``fee_rate`` is the fee revenue per premium order (see
    :func:`fee_per_order`); 0 leaves the fee out.
    """
    if lambda_p < 0:
        raise InvalidParams("lambda_p must be >= 0")
    return cycle_profit(params, lambda_p, fee_rate, policy.t1, policy.t3,
                        policy.cycle_length)


def profit_rate(params: MarketParams, policy: ShipmentPolicy,
                lambda_p: float) -> float:
    """:func:`cycle_profit` of ``policy`` without membership-fee revenue."""
    return checked_profit(params, policy, lambda_p, 0.0)


def fee_per_order(params: MarketParams, fee_model: FeeModel,
                  fee: float) -> float:
    """Fee revenue per premium order, F / (delta * M).

    Each member pays F once per membership period M and orders at rate
    delta, so lambda_p/delta members renew continuously.  Raises
    DomainError outside the family's fee domain.
    """
    fee_model.members(fee)
    return fee / (fee_model.delta * params.M)


def profit_rate_with_fees(params: MarketParams, fee_model: FeeModel,
                          policy: ShipmentPolicy, fee: float,
                          lambda_p: float) -> float:
    """Average profit rate including membership-fee revenue.

    Every premium order brings ``F / (delta * M)`` of fee revenue on top
    of r (:func:`fee_per_order`).
    """
    return checked_profit(params, policy, lambda_p,
                          fee_per_order(params, fee_model, fee))
