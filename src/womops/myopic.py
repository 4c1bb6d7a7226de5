"""Closed-form shipment policy for a fixed, observed premium demand rate.

An e-tailer that treats the current premium rate as exogenous maximizes
the average profit rate over (t1, t2, t3) subject to t3 <= tau.  The
objective is neither convex nor concave, but dominance arguments leave
only four undominated stationary-point cases:

    I    t1 = t2 = 0, t3 = tau        (tau binding, nothing else)
    II   t1 = t2 = 0, t3 < tau        (tau slack; EOQ-like cycle)
    III  t1 > 0, t2 = 0, t3 = tau     (fast service stretches the cycle)
    IV   t1 > 0, t2 > 0, t3 = tau     (additionally shed regular demand)

Each case has a closed-form candidate; the solver evaluates the feasible
ones and keeps the profit maximizer.  ``grid_search_policy`` is the
brute-force oracle used to validate the closed forms.  It scans rows of
t1 against one plain axis of cycle lengths T and returns the exhaustive
grid scan's argmax and tie to the bit, but skips every t1 row whose
closed-form profit bound lies below a profit it has already scanned.
That bound relaxes the profit over a continuous cycle length; it is not
the four-case policy, so the oracle stays independent of what it checks.
The oracle's functions import NumPy when called: the closed forms run on
Python floats, and a solve never loads it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .domain import EPS_NUM, MarketParams, ShipmentPolicy, cycle_profit
from .errors import InvalidGrid, InvalidParams


class PolicyCase(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


_CASES = tuple(PolicyCase)
_CASES_AT_ZERO = (PolicyCase.I, PolicyCase.III)  # II and IV divide by lambda_p
_ORACLE_CHUNK = 1 << 17   # grid points the oracle evaluates at once
MAX_AXIS_POINTS = 1 << 15  # longest T axis the oracle allocates
_BOUND_MARGIN = 1e-9      # relative slack on a row bound, far above rounding


@dataclass(frozen=True)
class PolicySolution:
    """Optimal policy for the demand rate the solve was conditioned on."""

    policy: ShipmentPolicy
    case: PolicyCase
    profit: float
    lambda_p: float
    kkt_residual: float = 0.0


def _phases(case: PolicyCase, params: MarketParams,
            lambda_p: float) -> tuple[float, float, float] | None:
    """``(t1, t2, t3)`` of one case's closed form, or None when infeasible."""
    tau = float(params.tau)
    if case is PolicyCase.I:
        return 0.0, 0.0, tau

    K, h = params.K, params.h
    if case is PolicyCase.II:
        if lambda_p == 0:
            raise InvalidParams("case II undefined at lambda_p = 0")
        h_lp = h * lambda_p
        # Where h * lambda_p underflows to 0, dividing by each in turn
        # gives the long (or infinite) cycle instead of a division by 0.
        t3 = math.sqrt(2.0 * K / h_lp if h_lp > 0 else 2.0 * K / h / lambda_p)
        return (0.0, 0.0, t3) if t3 < tau else None

    lam_r = params.lambda_r
    if case is PolicyCase.III:
        t1 = math.sqrt((h * lam_r * tau * tau + 2.0 * K)
                       / (h * (lambda_p + lam_r))) - tau
        return (t1, 0.0, tau) if t1 > 0 else None

    if lambda_p == 0:
        raise InvalidParams("case IV undefined at lambda_p = 0")
    r = params.r
    radicand = 2.0 * h * K - 2.0 * h * lam_r * r * tau - lam_r * r * r
    if radicand <= 0:
        return None
    quotient = radicand / lambda_p
    # A tiny lambda_p overflows the quotient to inf; the quotient of the
    # roots keeps t2 finite there, so case IV's profit tends to 0 as
    # lambda_p -> 0+.  Where the quotient is finite, its root is kept.
    root = (math.sqrt(quotient) if quotient < math.inf
            else math.sqrt(radicand) / math.sqrt(lambda_p))
    t2 = root / h - r / h - tau
    return (r / h, t2, tau) if t2 > 0 else None


def candidate(case: PolicyCase, params: MarketParams,
              lambda_p: float) -> ShipmentPolicy | None:
    """Closed-form candidate for one case, or None when infeasible.

    Infeasibility (a phase length coming out nonpositive, or a negative
    radicand in case IV) is a value, not an error; it just means the case's
    region does not contain these demand rates.
    """
    if lambda_p < 0:
        raise InvalidParams("lambda_p must be >= 0")
    phases = _phases(case, params, lambda_p)
    return None if phases is None else ShipmentPolicy(*phases)


def _stationarity_residual(case: PolicyCase, params: MarketParams,
                           policy: ShipmentPolicy, lambda_p: float) -> float:
    """Max |gradient| of the cost over the case's free phase lengths.

    The equivalent minimization objective is
    f = h*lambda_p*T/2 + h*lambda_r*t1^2/(2T) + K/T + r*lambda_r*t2/T.
    Variables at their bounds are covered by multipliers and contribute
    nothing here; case I therefore has no free variable.
    """
    if case is PolicyCase.I:
        return 0.0
    r, K, h, lam_r = params.r, params.K, params.h, params.lambda_r
    t1, t2, T = policy.t1, policy.t2, policy.cycle_length
    common = h * lambda_p / 2.0 - h * lam_r * t1 * t1 / (2.0 * T * T) - K / (T * T)
    df_dt3 = common - r * lam_r * t2 / (T * T)
    df_dt1 = df_dt3 + h * lam_r * t1 / T
    df_dt2 = common + r * lam_r * (t1 + policy.t3) / (T * T)
    if case is PolicyCase.II:
        return abs(df_dt3)
    if case is PolicyCase.III:
        return abs(df_dt1)
    return max(abs(df_dt1), abs(df_dt2))


def solve_policy(params: MarketParams, lambda_p: float) -> PolicySolution:
    """Profit-maximizing policy given the observed premium rate.

    Evaluates all feasible closed-form candidates and returns the best;
    exact ties go to the lowest case id.  Case I (t3 = tau) is always
    feasible, since ``MarketParams`` requires tau > 0.  At lambda_p = 0
    only cases I and III exist (the others divide by lambda_p).
    Structurally the result always satisfies: t1 = 0 implies t2 = 0, and
    t3 < tau implies t1 = 0; moreover t3 < tau exactly when
    lambda_p > 2K/(h tau^2).
    """
    if lambda_p < 0:
        raise InvalidParams("lambda_p must be >= 0")
    if lambda_p == 0 and params.lambda_r == 0:
        raise InvalidParams("at least one demand rate must be positive")

    best = None
    for case in _CASES if lambda_p != 0 else _CASES_AT_ZERO:
        phases = _phases(case, params, lambda_p)
        if phases is None:
            continue
        t1, t2, t3 = phases
        T = t1 + t2 + t3
        if not T > 0:  # a case-II cycle whose length underflows to 0
            ShipmentPolicy(*phases)  # raises InvalidPolicy
        profit = cycle_profit(params, lambda_p, 0.0, t1, t3, T)
        if best is None or profit > best[0] + EPS_NUM:
            best = (profit, case, phases)
    profit, case, phases = best
    policy = ShipmentPolicy(*phases)
    return PolicySolution(policy, case, profit, lambda_p,
                          _stationarity_residual(case, params, policy, lambda_p))


@dataclass(frozen=True)
class GridSpec:
    """Brute-force grid: uniform ``step`` over [0, t_max] per phase.

    ``t_max = None`` derives the bound max(tau, 2*sqrt(2K/(h*lambda_p)))
    that provably encloses every candidate optimum.
    """

    step: float
    t_max: float | None = None

    def resolve_t_max(self, params: MarketParams, lambda_p: float) -> float:
        # At lambda_p = 0 only the t3 = tau cases exist and the fast phase
        # is bounded by sqrt(2K/(h*lambda_r)); otherwise lost-sales cycles
        # can stretch to sqrt(2K/(h*lambda_p)).
        rate = lambda_p if lambda_p > 0 else params.lambda_r
        required = max(params.tau,
                       2.0 * math.sqrt(2.0 * params.K
                                       / (params.h * max(rate, EPS_NUM))))
        if self.t_max is None:
            return required
        if self.t_max < required - EPS_NUM:
            raise InvalidGrid(f"t_max={self.t_max} below required {required:.6g}")
        return self.t_max


def _classify(policy: ShipmentPolicy, tau: float, slack: float) -> PolicyCase:
    has_t1 = policy.t1 > slack
    has_t2 = policy.t2 > slack
    if has_t1 and has_t2:
        return PolicyCase.IV
    if has_t1:
        return PolicyCase.III
    return PolicyCase.I if policy.t3 >= tau - slack else PolicyCase.II


def _largest_t3(t1, T, t3_cap: float, t_max: float):
    """(t2, t3, feasible) at the largest grid t3 for each (t1, T).

    No-operation cycles (t3 = 0) are outside the policy domain and stay
    excluded.
    """
    import numpy as np

    t3 = np.minimum(t3_cap, T - t1)
    t2 = T - t1 - t3
    return t2, t3, (t3 > 0) & (t2 <= t_max * (1 + 1e-12))


def _oracle_axes(params: MarketParams, lambda_p: float, grid: GridSpec):
    """The oracle's (t1, T) grid: ``(t1_axis, T_axis, t3_cap, t_max)``.

    t1 runs over 0, step, ... up to t_max, and T over step, 2*step, ... up
    to every attainable t1 + t2 + t3.  A T axis longer than
    ``MAX_AXIS_POINTS`` is refused before anything is allocated.
    """
    import numpy as np

    step = grid.step
    t_max = grid.resolve_t_max(params, lambda_p)
    t3_cap = min(params.tau, t_max)
    axis = 2.0 * (t_max / step) + t3_cap / step
    if not axis <= MAX_AXIS_POINTS:
        raise InvalidGrid(f"step={step:g} needs a T axis of {axis:.3g} "
                          f"points, above the {MAX_AXIS_POINTS} allowed")
    n_phase = int(math.floor(t_max / step + 1e-9))
    n_t3 = int(math.floor(t3_cap / step + 1e-9))
    if n_phase < 1 or n_t3 < 1:
        raise InvalidGrid("grid too coarse for the bounds")
    t1_axis = np.arange(0, n_phase + 1) * step
    T_axis = np.arange(1, 2 * n_phase + n_t3 + 1) * step
    return t1_axis, T_axis, n_t3 * step, t_max


def _row_bounds(params: MarketParams, lambda_p: float, t1, T_first,
                t3_cap: float):
    """Upper bound on the profit of each t1 row over every real T >= T_first.

    With C = K + h*lambda_r*t1^2/2 and t1 + t3 = min(T, t1 + t3_cap), the
    profit at (t1, T) is r*lambda_p + r*lambda_r*min(T, t1 + t3_cap)/T
    - h*lambda_p*T/2 - C/T, whatever t_max masks.  Up to t1 + t3_cap the
    revenue term is r*lambda_r and the best T is sqrt(2C/(h*lambda_p)),
    clipped; past it the net fixed cost is C' = C - r*lambda_r*(t1 + t3_cap)
    and the best T is sqrt(2C'/(h*lambda_p)) when C' > 0, else the piece's
    start.  Each bound carries a relative margin on its terms' magnitudes.
    At lambda_p = 0 the bound is inf, and a NaN bound skips nothing either.
    """
    import numpy as np

    if lambda_p == 0:
        return np.full(t1.shape, np.inf)
    r, K, h, lam_r = params.r, params.K, params.h, params.lambda_r
    h_lp = h * lambda_p
    C = K + h * lam_r * t1 * t1 / 2.0
    end = t1 + t3_cap

    def at(T):
        cost = h_lp * T / 2.0 + C / T
        value = r * lambda_p + r * lam_r * np.minimum(T, end) / T - cost
        return value + _BOUND_MARGIN * (r * lambda_p + r * lam_r + cost)

    with np.errstate(all="ignore"):
        short = np.clip(np.sqrt(2.0 * C / h_lp), T_first, end)
        net = np.maximum(C - r * lam_r * end, 0.0)
        long = np.maximum(np.sqrt(2.0 * net / h_lp), end)
        return np.maximum(at(short), at(long))


def grid_search_policy(params: MarketParams, lambda_p: float,
                       grid: GridSpec) -> PolicySolution:
    """Exhaustive grid argmax of the profit rate; the validation oracle.

    The search enumerates (t1, T) pairs of :func:`_oracle_axes` and, for
    each, the largest grid t3 compatible with t3 <= tau and
    0 <= t2 <= t_max.  Because the profit is nondecreasing in t3 at fixed
    (t1, T) (its only t3 term is +r*lambda_r*t3/T), that point dominates
    every other (t2, t3) split of the same cycle, so the reduced argmax
    equals the full 3-d grid argmax.  Pairs with no such t3 are
    infeasible, and ties go to the first (t1, T) in row-major order.

    The row with the largest :func:`_row_bounds` bound is scanned first,
    and its best profit is the incumbent.  The scan then skips every row
    whose bound is below the incumbent: such a row can neither win nor
    tie, so the result is the exhaustive scan's, argmax and tie, to the
    bit.  The bound is a relaxation of the profit, not the closed-form
    policy.  The rows kept are evaluated in chunks of about
    ``_ORACLE_CHUNK`` points.  The result is within O(step) of the true
    optimum.
    """
    import numpy as np

    if grid.step <= 0:
        raise InvalidGrid("step must be > 0")
    if lambda_p < 0:
        raise InvalidParams("lambda_p must be >= 0")
    if lambda_p == 0 and params.lambda_r == 0:
        raise InvalidParams("at least one demand rate must be positive")
    t1_axis, T_axis, t3_cap, t_max = _oracle_axes(params, lambda_p, grid)
    r, K, h, lam_r = params.r, params.K, params.h, params.lambda_r
    rows = max(1, _ORACLE_CHUNK // T_axis.size)

    def scan(first: int, stop: int):
        """Best profit of rows first..stop-1 and its (row, T index)."""
        best_val, best = -math.inf, (first, 0)
        for lo in range(first, stop, rows):
            t1 = t1_axis[lo:min(lo + rows, stop)][:, None]
            _, t3, feasible = _largest_t3(t1, T_axis, t3_cap, t_max)
            profit = (r * lambda_p
                      + r * lam_r * (t1 + t3) / T_axis
                      - h * lambda_p * T_axis / 2.0
                      - h * lam_r * t1 * t1 / (2.0 * T_axis)
                      - K / T_axis)
            profit[~feasible] = -np.inf
            flat = int(np.argmax(profit))
            val = float(profit.flat[flat])
            if val > best_val:
                i, j = divmod(flat, T_axis.size)
                best_val, best = val, (lo + i, j)
        return best_val, best

    bound = _row_bounds(params, lambda_p, t1_axis, T_axis[:t1_axis.size],
                        t3_cap)
    top = int(np.argmax(bound))
    incumbent, _ = scan(top, top + 1)
    # The rows kept, as runs of consecutive rows scanned in order.
    keep = np.concatenate(([False], ~(bound < incumbent), [False]))
    runs = np.flatnonzero(keep[1:] != keep[:-1]).reshape(-1, 2)
    best_val = -math.inf
    best = (0, 0)
    for first, stop in runs.tolist():
        val, at = scan(first, stop)
        if val > best_val:
            best_val, best = val, at

    if not math.isfinite(best_val):
        raise InvalidGrid("no feasible grid point")
    t1 = float(t1_axis[best[0]])
    t2, t3, _ = _largest_t3(t1, T_axis[best[1]], t3_cap, t_max)
    policy = ShipmentPolicy(t1, max(float(t2), 0.0), float(t3))
    case = _classify(policy, params.tau, grid.step / 2.0)
    return PolicySolution(policy, case, best_val, lambda_p)
