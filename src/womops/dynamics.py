"""Demand/operations feedback loop and its long-run classification.

Without knowledge of the feedback, the e-tailer re-solves the shipment
policy for whatever premium rate was last observed; regular customers
rate the resulting service, and premium demand responds:

    policy_k = argmax profit | lambda_k      (closed-form solve)
    lambda_{k+1} = R(signal(policy_k))

Whatever stays fixed during a run is taken once per run: the potential
market c1(F), the bounds of the admissible range [0, c1] and the fee
revenue per order F/(delta M); the signal's weights come with its spec.
Each round then costs one closed-form solve (which compares its
candidates as floats and builds a policy for the winner only), one
signal and one response.

Under the maximum-delivery-time signal the long-run behavior is fully
characterized analytically (see :func:`predict_long_run`): the premium
rate either reaches the whole potential market, converges to an interior
limit, or settles into a two-point cycle, depending on the potential
market size and the sensitivity exponent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .domain import (CustomerResponse, FeeModel, MarketParams, ShipmentPolicy,
                     SignalKind, SignalSpec, checked_profit, fee_per_order,
                     potential_market, response, signal)
from .errors import InvalidParams, UnsupportedSignal
from .myopic import solve_policy

#: Budget on ``simulate``'s ``max_iters``.  Every iteration is kept as a
#: trace point (10-20 us and 0.3 KB each over 100,000 iterations, Python
#: 3.11 on a 2-vCPU x86-64 machine), so the budget bounds a run at about
#: two seconds and 31 MB.
MAX_SIM_ITERS = 100_000


class LongRunKind(enum.Enum):
    CONVERGED_TO_POTENTIAL = "converged-to-potential"
    CONVERGED_INTERIOR = "converged-interior"
    CYCLE2 = "cycle-2"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class LongRunClass:
    """Long-run classification.  ``values`` holds the limit of a converged
    kind, the (high, low) pair of a cycle, and nothing when undetermined."""

    kind: LongRunKind
    values: tuple[float, ...]
    tol: float


@dataclass(frozen=True)
class TracePoint:
    k: int
    lambda_p: float
    policy: ShipmentPolicy
    profit: float


@dataclass(frozen=True)
class DynamicsTrace:
    """Iteration-indexed history; index 0 holds the seed before any response.

    ``profit`` at each point is the realized, fee-inclusive profit rate of
    that iteration's policy at that iteration's demand.  ``prediction``
    carries the analytic long-run characterization when one applies (MDT
    signal), independent of what the finite trace shows.
    """

    points: tuple[TracePoint, ...]
    classification: LongRunClass
    prediction: LongRunClass | None = None

    @property
    def settled(self) -> tuple[float, ...]:
        """The limit, the (high, low) cycle, or if undetermined the last rate."""
        return self.classification.values or (self.points[-1].lambda_p,)


def _feedback(params: MarketParams, fee_model: FeeModel,
              resp: CustomerResponse, spec: SignalSpec, fee: float):
    """``(c1, advance)``: the potential market and one round as a function.

    Everything that stays fixed during a run is taken here, once: c1(F)
    and the bounds of the admissible range [0, c1].  ``advance(lambda_p)``
    then solves for ``lambda_p``, emits the signal and responds,
    returning ``(policy, next lambda_p)``.
    """
    c1 = potential_market(fee_model, fee)
    low, high, cap = -1e-12, c1 * (1 + 1e-12) + 1e-12, max(c1, 0.0)
    tau, c2 = params.tau, resp.c2

    def advance(lambda_p: float) -> tuple[ShipmentPolicy, float]:
        if lambda_p < low or lambda_p > high:
            raise InvalidParams(f"lambda_p={lambda_p} outside [0, c1(F)={c1}]")
        policy = solve_policy(params, min(max(lambda_p, 0.0), cap)).policy
        return policy, response(c1, c2, signal(spec, policy, tau))

    return c1, advance


def step(params: MarketParams, fee_model: FeeModel, resp: CustomerResponse,
         spec: SignalSpec, fee: float,
         lambda_p: float) -> tuple[ShipmentPolicy, float]:
    """One feedback round: solve for lambda_p, emit the signal, respond."""
    return _feedback(params, fee_model, resp, spec, fee)[1](lambda_p)


def _classify_sequence(lambdas: list[float], c1: float,
                       tol: float) -> LongRunClass | None:
    """The stopping pattern the newest value of ``lambdas`` completes, or None.

    Convergence: |lambda_{k+1} - lambda_k| < tol.  Two-point cycle:
    lambda_{k+2} returns to lambda_k within tol, the excursion
    |lambda_{k+1} - lambda_k| is well separated from tol, and the cycle
    persists (lambda_{k+3} returns to lambda_{k+1} as well).  The
    separation and persistence guards keep damped oscillations -- whose
    two-apart differences shrink below tol while consecutive differences
    are still above it -- out of the cycle branch.  Convergence is
    checked first at each index.

    :func:`simulate` calls it once per new value until it returns a
    pattern, and keeps that one: it is the earliest of the whole sequence,
    since the one check a later value completes at a lower index, a cycle
    at k - 1 after convergence at k, would need a step of at least 10 tol
    next to two of less than tol.  The patterns the newest value completes
    are checked in scan order: the cycle at n - 4, then convergence at
    n - 2.
    """
    n = len(lambdas)
    k = n - 4
    if (k >= 0
            and abs(lambdas[k + 2] - lambdas[k]) < tol
            and abs(lambdas[k + 3] - lambdas[k + 1]) < tol
            and abs(lambdas[k + 1] - lambdas[k]) >= 10.0 * tol):
        pair = (lambdas[k + 2], lambdas[k + 3])
        return LongRunClass(LongRunKind.CYCLE2, (max(pair), min(pair)), tol)
    k = n - 2
    if k >= 0 and abs(lambdas[k + 1] - lambdas[k]) < tol:
        limit = lambdas[k + 1]
        if abs(limit - c1) <= 10.0 * tol:
            return LongRunClass(LongRunKind.CONVERGED_TO_POTENTIAL, (c1,), tol)
        return LongRunClass(LongRunKind.CONVERGED_INTERIOR, (limit,), tol)
    return None


def simulate(params: MarketParams, fee_model: FeeModel, resp: CustomerResponse,
             spec: SignalSpec, fee: float, seed_lambda_p: float | None = None,
             max_iters: int = 200, tol: float = 1e-4,
             min_iters: int = 0) -> DynamicsTrace:
    """Iterate the feedback loop and classify its long-run behavior.

    Stops early once the sequence has converged (successive change below
    ``tol``) or revisits itself two steps apart (two-point cycle), but
    never before ``min_iters`` responses have been generated -- table
    reproduction uses that to emit fixed-length traces; the first pattern
    found is the classification.  The seed defaults to the potential
    market c1(F).
    """
    if not 0 <= max_iters <= MAX_SIM_ITERS:
        raise InvalidParams(f"max_iters must be in [0, {MAX_SIM_ITERS}]")
    if tol < 0:
        raise InvalidParams("tol must be >= 0")
    c1, advance = _feedback(params, fee_model, resp, spec, fee)
    rate = fee_per_order(params, fee_model, fee)
    lam = float(c1 if seed_lambda_p is None else seed_lambda_p)

    lambdas: list[float] = []
    points: list[TracePoint] = []
    classification = None
    for k in range(max_iters + 1):
        lambdas.append(lam)
        policy, nxt = advance(lam)
        points.append(TracePoint(k, lam, policy,
                                 checked_profit(params, policy, lam, rate)))
        if k and classification is None:  # the seed alone holds no pattern
            classification = _classify_sequence(lambdas, c1, tol)
        if classification is not None and k >= min_iters:
            break
        lam = nxt

    if classification is None:
        classification = LongRunClass(LongRunKind.UNDETERMINED, (), tol)
    prediction = None
    if spec.kind is SignalKind.MDT:
        prediction = predict_long_run(params, fee_model, resp, spec, fee)
    return DynamicsTrace(tuple(points), classification, prediction)


def predict_long_run(params: MarketParams, fee_model: FeeModel,
                     resp: CustomerResponse, spec: SignalSpec,
                     fee: float) -> LongRunClass:
    """Analytic long-run premium rate under the MDT signal.

    With bound = 2K/(h tau^2) and w = bound / c1(F):

    * c1(F) <= bound: every policy realizes the declared delivery time, the
      signal stays at 1, and demand reaches the full potential c1(F).
    * c1(F) > bound, c2 >= 2: the reaction overshoots; demand alternates
      between c1(F) and c1(F) * w**(c2/2).
    * c1(F) > bound, c2 < 2: the map contracts in log space (slope -c2/2)
      and demand converges linearly to c1(F) * w**(c2/(c2+2)).

    c2 = 0 degenerates to the full potential in one step.
    """
    if spec.kind is not SignalKind.MDT:
        raise UnsupportedSignal("analytic prediction covers the MDT signal only")
    c1 = potential_market(fee_model, fee)
    bound = params.demand_threshold
    if c1 <= bound or resp.c2 == 0:
        return LongRunClass(LongRunKind.CONVERGED_TO_POTENTIAL, (c1,), 0.0)
    w = bound / c1
    if resp.c2 >= 2:
        low = c1 * w ** (resp.c2 / 2.0)
        return LongRunClass(LongRunKind.CYCLE2, (c1, low), 0.0)
    limit = c1 * w ** (resp.c2 / (resp.c2 + 2.0))
    return LongRunClass(LongRunKind.CONVERGED_INTERIOR, (limit,), 0.0)


def trace_rows(trace: DynamicsTrace) -> list[tuple[int, float, float, float, float, float]]:
    """Trace as (iter, lambda_p, t1, t2, t3, profit) rows for CSV export."""
    return [(p.k, p.lambda_p, p.policy.t1, p.policy.t2, p.policy.t3, p.profit)
            for p in trace.points]
