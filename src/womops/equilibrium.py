"""Joint fee and shipment-policy optimization under stationary feedback.

Here the e-tailer knows how service signals drive premium demand and
picks (t1, t3, T, F) so that the demand the policy *creates* is the
demand it was built for: the stationarity constraint lambda_p =
R(signal) is substituted into the profit.  Two of the four unknowns
have closed forms given the others.  For a fixed policy the best fee
depends on the cycle length alone (:func:`best_fee`, which hands out
c1(F) and F/(delta M) with it).  For a fixed t1 and T, t3 enters the
profit only through the signal, which is affine in t3, and the regular
revenue r lambda_r t3 / T, so the best t3 depends on T, the slack s =
T - t1 and the premium margin Q at F*(T) alone (:func:`_phase3`).  Both
are profiled out, which leaves P(T), the best profit of a cycle of
length T, to be maximized over T.

The landscape is neither convex nor concave, but at a fixed cycle length
T it is solved exactly.  The fee is F*(T), and with t3 profiled out the
profit as a function of the signal level is a power of it plus a concave,
piecewise quadratic term, for the MDT, NPS and weighted signals alike.
Its maximum P(T) is the best of the pieces' ends and of the roots of its
derivative, each scored where it is found (:func:`_slice_search`), which
returns the cycle it scored: t1, s, t3 and the fee.  P is taken on a
deterministic lattice of T rows from 0 to the search cap, whose size
:data:`MAX_GRID_POINTS` caps, and a closed-form bound on P
(:func:`_row_bound`) leaves most rows unsolved.  Each lattice local
maximum of P is then refined by Brent's method (:func:`minimize`), which
closes on the kink of P at T = tau in two probes.  For the
linear-fee, unit-sensitivity, delivery-time-signal regime with t3 < tau
the optimum also has closed forms (:func:`closed_form_t3`), used as
independent cross-checks of the numeric path.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .domain import (CustomerResponse, FeeFamily, FeeModel, MarketParams,
                     ShipmentPolicy, SignalKind, SignalSpec, cycle_profit,
                     potential_market, profit_rate_with_fees, respond, signal,
                     signal_value)
from .dynamics import LongRunKind, simulate
from .errors import (InfeasibleProblem, InvalidParams, RegimeViolation,
                     UnsupportedSignal)
from .myopic import solve_policy

_PROFIT_TIE = 1e-6    # profits closer than this are ties (smaller F, then T wins)
_NEWTON_STEPS = 64    # cap on the logarithmic family's Newton iterations
#: Relative widening of the logarithmic family's bound-exit thresholds in
#: :func:`best_fee`, far above Newton's few-ulp error.  The exit returns
#: Newton's fee either way; a wider margin only sends more A to Newton.
_BOUND_EXIT_MARGIN = 1e-9
#: Relative widening of the row bounds (:func:`_row_bound`) on their
#: terms' magnitudes, far above the few ulps a profit rounds by.
_ROW_BOUND_MARGIN = 1e-9
#: The t3 -> 0+ end of Phase 3: the smallest positive float, so the cycle
#: keeps a Phase 3 and its signal is the t3 = 0 limit to within rounding.
_T3_FLOOR = 5e-324
_BISECTIONS = 100     # cap on the halvings that place one root of f'
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # Brent's golden-section step, 0.382
_T_TOL = 1e-10        # Brent's method stops at this width relative to T
#: Brent's least step relative to T, just under half of :data:`_T_TOL`:
#: the two probes this far either side of a point close a bracket on it.
_STEP = 0.49 * _T_TOL

#: Budget on the T lattice: its n_time - 1 rows (T > 0 on one axis from
#: 0 to the search cap), one exact inner solve each.  The row bound
#: usually leaves most of them unsolved, so this is the worst case of the
#: scan.  It admits n_time <= 128; the default n_time=40 counts 39.
MAX_GRID_POINTS = 127


@dataclass(frozen=True)
class SearchSpec:
    """Deterministic search settings: the T lattice's point count."""

    n_time: int = 40

    def __post_init__(self) -> None:
        if type(self.n_time) is not int or self.n_time < 2:  # bool is no count
            raise InvalidParams(
                f"n_time must be an integer of at least 2, got {self.n_time!r}")
        if self.n_time - 1 > MAX_GRID_POINTS:
            raise InvalidParams(
                f"n_time={self.n_time} makes {self.n_time - 1} lattice rows, "
                f"over the budget of {MAX_GRID_POINTS}")


@dataclass(frozen=True)
class EquilibriumProblem:
    params: MarketParams
    fee_model: FeeModel
    resp: CustomerResponse
    signal_spec: SignalSpec

    def __post_init__(self) -> None:
        # The fee family must be defined (N >= 0) over the whole fee box;
        # N is nonincreasing in F for both families, so the endpoints decide.
        for fee in (self.params.f_min, self.params.f_max):
            if not self.fee_model.in_domain(fee):
                raise InvalidParams(
                    f"fee bound {fee} outside the {self.fee_model.family.value} domain")


class Branch(enum.Enum):
    NUMERIC_INTERIOR = "numeric-interior"
    NUMERIC_BOUNDARY = "numeric-boundary"


@dataclass(frozen=True)
class EquilibriumSolution:
    """Optimal cycle, fee, and the stationary demand they induce."""

    policy: ShipmentPolicy
    fee: float
    lambda_p: float
    profit: float
    branch: Branch


def search_cap(problem: EquilibriumProblem) -> float:
    """Upper bound on any phase length that provably encloses the optima.

    The last term is the cycle-length bound T <= 2r/h + 2F/(h delta M)
    implied by stationarity whenever premium demand is present.
    """
    p = problem.params
    cap = max(3.0 * p.tau,
              2.0 * p.r / p.h
              + 2.0 * p.f_max / (p.h * problem.fee_model.delta * p.M))
    if p.lambda_r > 0:
        cap = max(cap, 3.0 * math.sqrt(2.0 * p.K / (p.h * p.lambda_r)))
    return cap


def best_fee(problem: EquilibriumProblem):
    """The profit-maximizing fee and its terms, ``T -> (F, c1, fee_rate)``.

    F = F*(T) is the best fee of a cycle of length T, c1 = c1(F)
    (:func:`potential_market`) and fee_rate = F/(delta M).  For a fixed
    policy the profit is theta^c2 N(F) delta (r - hT/2 + F/(delta M))
    plus terms free of F, and theta > 0 whenever t3 > 0, so the best fee
    in [f_min, f_max] depends on the cycle length T alone.
    A pinned fee is f_min.  The linear family with b > 0 is a concave
    quadratic in F: F* = clip((a - b delta M r)/(2b) + delta M h T/4).
    With b <= 0 it is linear or convex, so the better end of the box wins,
    f_min on a tie (as when a = b = 0; with a = 0 and b < 0, N = -bF > 0).
    The logarithmic family with a = 0 has N = 0 and takes f_min.  With
    a > 0, u = b - F and A = delta M (r - hT/2) + b, the product falls in u
    when A <= 1 (F* = f_max) and otherwise peaks at the root of g(u) =
    u (ln u + 1) = A, found by Newton from u = A and clipped.  g increases,
    so the clip decides F* without the root when A lies at or past
    g(b - f_min) (F* = f_min) or at or short of g(b - f_max) (F* = f_max).
    Those two thresholds are taken once per problem and widened by the
    relative margin :data:`_BOUND_EXIT_MARGIN`, which Newton's last-ulp
    error cannot cross, so the exit returns the bound the root would clip
    to.  A threshold that overflows to inf exits for no finite A: A = inf
    takes f_min, and every finite A beyond A <= 1 takes the Newton root.
    Most cycle lengths the solver visits take a fee bound, so each bound's
    triple is taken once per problem and handed out by the branch that
    picks it; only an interior fee takes N(F) and the division per call.
    """
    p, fm = problem.params, problem.fee_model
    lo, hi = p.f_min, p.f_max
    b = fm.b
    delta_M = fm.delta * p.M

    def terms(fee: float) -> tuple[float, float, float]:
        return fee, potential_market(fm, fee), fee / delta_M

    at_lo, at_hi = terms(lo), terms(hi)

    if hi <= lo or fm.family is FeeFamily.LOGARITHMIC and fm.a == 0:
        return lambda T: at_lo
    if fm.family is FeeFamily.LINEAR and b > 0:
        base = (fm.a - b * delta_M * p.r) / (2.0 * b)
        slope = delta_M * p.h / 4.0

        def clipped(T: float) -> tuple[float, float, float]:
            fee = base + slope * T
            return at_lo if fee < lo else at_hi if fee > hi else terms(fee)

        return clipped
    if fm.family is FeeFamily.LINEAR:
        def value(fee: float, T: float) -> float:
            return fm.members(fee) * (p.r - p.h * T / 2.0 + fee / delta_M)

        return lambda T: at_hi if value(hi, T) > value(lo, T) else at_lo

    def g(u: float) -> float:
        return u * (math.log(u) + 1.0)

    to_hi = g(b - hi) * (1.0 - _BOUND_EXIT_MARGIN)
    to_hi = max(1.0, to_hi) if to_hi < math.inf else 1.0
    to_lo = g(b - lo) * (1.0 + _BOUND_EXIT_MARGIN)

    def fee_of(T: float) -> tuple[float, float, float]:
        A = delta_M * (p.r - p.h * T / 2.0) + b
        if not A > to_hi:
            return at_hi
        if A >= to_lo:
            return at_lo
        # u (ln u + 1) is convex and increasing: Newton from above descends
        # onto the root.  The step is split so that u + A cannot overflow.
        u = A
        for _ in range(_NEWTON_STEPS):
            slope = math.log(u) + 2.0
            nxt = u / slope + A / slope
            if not nxt < u:
                break
            u = nxt
        fee = b - u
        return at_lo if fee < lo else at_hi if fee > hi else terms(fee)

    return fee_of


def _phase3(problem: EquilibriumProblem):
    """The best Phase-3 length ``(T, s, Q) -> t3`` on floats.

    T is the cycle length, s = T - t1 the slack, and Q = c1 (r + F/(delta
    M) - hT/2) the premium margin at the cycle's fee F, c1 = c1(F), which
    the caller has formed.  :func:`cycle_profit` depends on t3 in (0, U],
    U = min(tau, s), only through theta^c2 Q + r lambda_r t3 / T, and
    theta = beta + alpha t3 is affine in t3, alpha the MDT weight of
    ``SignalSpec.shares`` over its divisor and tau.  So t3 = U when Q >=
    0, alpha = 0 or c2 = 0.  Otherwise, with c2 <= 1 that term is convex
    in t3 and the better end wins: U, on a tie too, or t3 -> 0+, taken as
    :data:`_T3_FLOOR`.  With c2 > 1 it is concave and t3 is the root of
    c2 alpha theta^(c2-1) Q + r lambda_r / T = 0, clipped to [_T3_FLOOR,
    U].  This is the one copy of the rule; :func:`_slice_search` scores
    its candidates with it.
    """
    p, c2 = problem.params, problem.resp.c2
    spec, tau = problem.signal_spec, p.tau
    mdt, _, divisor = spec.shares
    alpha = mdt / divisor / tau
    rl = p.r * p.lambda_r

    if not (alpha > 0 and c2 > 0):
        return lambda T, s, Q: s if s < tau else tau

    def t3_of(T: float, s: float, Q: float) -> float:
        U = s if s < tau else tau
        if Q >= 0:
            return U
        theta_u = signal_value(spec, s - U, U, T, tau)
        beta = signal_value(spec, s, 0.0, T, tau)
        if c2 <= 1:
            low = theta_u ** c2 * Q + rl * U / T < beta ** c2 * Q
            return _T3_FLOOR if low else U
        # The root lies below U exactly when the slope at U is negative.
        # Then rl / scale < theta_u^(c2-1) <= 1, so neither the division
        # nor the power can overflow.
        scale = T * c2 * alpha * -Q
        if not rl < theta_u ** (c2 - 1.0) * scale:
            return U
        t3 = ((rl / scale) ** (1.0 / (c2 - 1.0)) - beta) / alpha
        if t3 > U:
            return U
        return t3 if t3 > _T3_FLOOR else _T3_FLOOR

    return t3_of


def _row_bound(problem: EquilibriumProblem):
    """``(lo, hi) -> bound`` on P(T) for every T in [lo, hi], 0 <= lo <= hi.

    With c1 = c1(F) and fee_rate = F/(delta M) at F = F*(lo)
    (:func:`best_fee`), the bound is the largest over T in [lo, hi] of

        c1 max(0, r + fee_rate - h lo/2)
            + (lambda_r min(rT, r^2/(2h) + r tau) - K) / T.

    It holds since lambda = c1 theta^c2 <= c1 (theta in [0, 1], c2 >= 0),
    t1 + t3 <= min(T, t1 + tau) and r (t1 + tau) - h t1^2/2 <= r^2/(2h)
    + r tau.  F*(T) maximizes c1(F) (r + F/(delta M) - hT/2) over the fee
    box, and that maximum does not increase with T, so F*(lo) covers the
    whole interval, and a point whose t1 + s rounds to a T one ulp away.
    The second term rises up to T = r/(2h) + tau and is monotone past it,
    so its largest value is at hi or at that T clipped into [lo, hi]; a
    row is lo = hi = T.  Each value is widened by :data:`_ROW_BOUND_MARGIN`
    of its terms' magnitudes, plus the smallest normal float for rounding
    below the normal range, and a NaN value makes the bound NaN.
    """
    p = problem.params
    r, h, K, lam_r = p.r, p.h, p.K, p.lambda_r
    peak = r * r / (2.0 * h) + r * p.tau
    turn = r / (2.0 * h) + p.tau
    fee_of = best_fee(problem)

    def at(T: float, lo: float, c1: float, fee_rate: float) -> float:
        regular = lam_r * min(r * T, peak)
        # max(margin, 0.0), not max(0.0, margin), keeps a NaN margin.
        return (c1 * max(r + fee_rate - h * lo / 2.0, 0.0) + (regular - K) / T
                + _ROW_BOUND_MARGIN * (c1 * (r + fee_rate + h * lo / 2.0)
                                       + (regular + K) / T)
                + sys.float_info.min)

    def bound(lo: float, hi: float) -> float:
        _, c1, fee_rate = fee_of(lo)
        value = at(hi, lo, c1, fee_rate)
        inner = lo if turn < lo else turn
        if inner < hi:
            other = at(inner, lo, c1, fee_rate)
            if other != other or other > value:
                value = other
        return value

    return bound


def _slice_search(problem: EquilibriumProblem):
    """``T -> (profit, t1, s, t3, F)``: the best cycle of length T, or None.

    At a fixed T the fee terms are F*(T)'s (:func:`best_fee`), so the
    premium margin Q = c1 (r + F/(delta M) - hT/2) is fixed, and the
    signal is theta = alpha t3 + beta s, alpha and beta the MDT and NPS
    weights of ``SignalSpec.shares`` over its divisor, and over tau and T
    respectively.  On the slice theta = v the regular part
    r lambda_r (T - s + t3) - h lambda_r (T - s)^2/2, with t3 = (v - beta
    s)/alpha, is a concave quadratic in s with its peak at s* = T - (r/h)
    (1 + beta/alpha), and the slice holds s in [lo, hi], lo = max(v/(alpha
    + beta), (v - alpha tau)/beta), hi = min(T, v/beta).  So s is s*
    clipped to [lo, hi].  MDT (beta = 0) takes t3 = v/alpha and t1 =
    min(r/h, T - t3), and NPS (alpha = 0) s = v/beta and t3 = min(tau, s).

    Each bound is affine in v, so between their crossings s and t3 are
    affine in v and the profit is Q v^c2 plus a concave quadratic.  On
    each such piece f'' has one closed-form root, on either side of which
    f' is monotone, and bisection places each root where f' falls through
    zero.  The candidates are those roots and the pieces' ends, whose s is
    always T, tau, s* or the t3 -> 0+ floor :data:`_T3_FLOOR`.  Each is
    scored here, by :func:`cycle_profit` at T's fee terms, with the best
    t3 for its s and Q (:func:`_phase3`) and lambda_p = R(theta), so a
    candidate scores at least its slice's profit.  The best profit wins,
    an exact tie going to the larger s (the shorter t1), and comes back
    with the t3 and fee F it was scored at; NaN and -inf are no cycle, and
    None comes back when no candidate has a profit.
    """
    p, c2 = problem.params, problem.resp.c2
    spec, tau = problem.signal_spec, p.tau
    mdt, nps, divisor = spec.shares
    alpha, nps = mdt / divisor / tau, nps / divisor
    r, h = p.r, p.h
    rl, hl, r_h = r * p.lambda_r, h * p.lambda_r, r / h
    fee_of = best_fee(problem)
    t3_of = _phase3(problem)
    curved = c2 not in (0.0, 1.0, 2.0)  # f'' has a root of its own

    def falling_roots(T: float, Q: float, beta: float, star: float):
        """The s of each root where f' falls through zero on (0, top)."""
        top = alpha * (tau if tau < T else T) + beta * T
        lower = [(0.0, 1.0 / (alpha + beta))]  # (intercept, slope) in v
        upper = [(T, 0.0)]
        if beta > 0:
            upper.append((0.0, 1.0 / beta))
            if alpha > 0:
                lower.append((-alpha * tau / beta, 1.0 / beta))
        lines = lower + upper + ([(star, 0.0)] if alpha > 0 else [])
        cuts = [0.0, top]
        for i, (c, k) in enumerate(lines):
            for d, m in lines[:i]:
                if k != m and 0.0 < (d - c) / (k - m) < top:
                    cuts.append((d - c) / (k - m))
        if not alpha > 0 and beta * tau < top:
            cuts.append(beta * tau)  # NPS: t3 = min(tau, s) stops growing
        cuts.sort()

        found = []
        for a, b in zip(cuts, cuts[1:]):
            if not a < b:
                continue
            v = (a + b) / 2.0
            lo = max(lower, key=lambda line: line[0] + line[1] * v)
            if alpha > 0 and star > lo[0] + lo[1] * v:
                lo = (star, 0.0)
            hi = min(upper, key=lambda line: line[0] + line[1] * v)
            s0, s1 = hi if hi[0] + hi[1] * v < lo[0] + lo[1] * v else lo
            if alpha > 0:
                u0, u1 = -beta * s0 / alpha, (1.0 - beta * s1) / alpha
            else:
                u0, u1 = (s0, s1) if s0 + s1 * v <= tau else (tau, 0.0)
            # f'(v) = c2 Q v^(c2-1) + d0 + d1 v on this piece.
            d0 = (rl * (u1 - s1) + hl * s1 * (T - s0)) / T
            d1 = -hl * s1 * s1 / T

            def slope(v: float) -> float:
                if not (Q and c2):
                    return d0 + d1 * v
                try:
                    power = c2 * Q * v ** (c2 - 1.0)
                except (OverflowError, ZeroDivisionError):
                    power = math.copysign(math.inf, Q)
                return power + d0 + d1 * v

            ends = [a, b]
            if curved and Q and d1:
                ratio = -d1 / (c2 * (c2 - 1.0) * Q)
                if ratio > 0:
                    try:
                        inflection = ratio ** (1.0 / (c2 - 2.0))
                    except OverflowError:
                        inflection = math.inf
                    if a < inflection < b:
                        ends.insert(1, inflection)
            for lo_v, hi_v in zip(ends, ends[1:]):
                if slope(lo_v) > 0 >= slope(hi_v):
                    for _ in range(_BISECTIONS):
                        mid = (lo_v + hi_v) / 2.0
                        if not lo_v < mid < hi_v:
                            break
                        if slope(mid) > 0:
                            lo_v = mid
                        else:
                            hi_v = mid
                    found.append(s0 + s1 * lo_v)
        return found

    def best_at(T: float):
        fee, c1, fee_rate = fee_of(T)
        Q = c1 * (r + fee_rate - h * T / 2.0)
        beta = nps / T
        star = T - r_h * (1.0 + beta / alpha) if alpha > 0 else -math.inf
        candidates = {T, _T3_FLOOR}
        if tau < T:
            candidates.add(tau)
        if 0.0 < star < T:
            candidates.add(star)
        for s in falling_roots(T, Q, beta, star):
            if s > _T3_FLOOR:  # a NaN root is no candidate
                candidates.add(s if s < T else T)
        best = None
        for s in sorted(candidates, reverse=True):
            t1 = T - s
            t3 = t3_of(T, s, Q)
            lam = c1 * signal_value(spec, s - t3, t3, T, tau) ** c2
            profit = cycle_profit(p, lam, fee_rate, t1, t3, T)
            # NaN and -inf are no cycle; +inf (overflow) wins, and makes the
            # solve fail.
            if profit > -math.inf and (best is None or profit > best[0]):
                best = (profit, t1, s, t3, fee)
        return best

    return best_at


class Refinement(NamedTuple):
    """One Brent refinement: its best point ``x``, a ``(profit, t1, s, t3,
    F)`` of :func:`_slice_search`, the P(T) evaluations it made, and
    whether its bracket closed to :data:`_T_TOL` of T (not only to float
    resolution)."""

    x: tuple[float, float, float, float, float]
    nfev: int
    success: bool


def minimize(best_at, a: float, x: float, b: float, fx,
             tau: float) -> Refinement:
    """The best point of P(T) on [a, b] that Brent's method finds from x.

    ``fx`` is ``best_at(x)``.  Each step is the peak of the parabola
    through the three best points so far, or, when that peak leaves the
    bracket or does not shrink it fast enough, a golden-section step on
    the longer side of x (R. P. Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 5).  No step is shorter than
    :data:`_STEP` of T.  x moves only to a strictly better probe, so the
    result is never below fx, and a probe without a cycle (None) is no
    better.  The bracket closes to :data:`_T_TOL` of T.  T = tau, where
    t3 = min(tau, s) stops growing, is probed first when it lies inside:
    P may peak on that kink, which the steps reach only in the limit.
    While x is tau, tau (1 - _STEP) and then tau (1 + _STEP) are probed;
    if neither is better, they close the bracket on tau.
    """
    nfev = 0
    if a < tau < b and tau != x:
        ft = best_at(tau)
        nfev += 1
        if ft is not None and ft[0] > fx[0]:
            x, fx = tau, ft
    px = fx[0]
    w = v = x              # the second and third best points, with their P
    pw = pv = px
    d = e = 0.0            # the last step and the one before it

    def probe(u: float) -> None:
        nonlocal a, b, x, fx, px, w, pw, v, pv, nfev
        fu = best_at(u)
        nfev += 1
        pu = fu[0] if fu is not None else -math.inf
        if pu > px:
            if u < x:
                b = x
            else:
                a = x
            v, pv, w, pw = w, pw, x, px
            x, fx, px = u, fu, pu
            return
        if u < x:
            a = u
        else:
            b = u
        if pu >= pw or w == x:
            v, pv, w, pw = w, pw, u, pu
        elif pu >= pv or v == x or v == w:
            v, pv = u, pu

    for u in (tau * (1.0 - _STEP), tau * (1.0 + _STEP)):
        if x == tau and a < u < b:
            probe(u)
    while b - a > _T_TOL * x:
        least = _STEP * x
        parabolic = False
        if abs(e) > least:
            # The parabola through (x, px), (w, pw) and (v, pv) peaks at
            # x + p / q; a NaN from an infinite P fails every test below.
            r = (x - w) * (px - pv)
            q = (x - v) * (px - pw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            last, e = e, d
            if q * (a - x) < p < q * (b - x) and abs(p) < abs(0.5 * q * last):
                parabolic = True
                d = p / q
                if x + d - a < 2.0 * least or b - x - d < 2.0 * least:
                    d = least if a + b >= 2.0 * x else -least
        if not parabolic:
            e = a - x if x - a > b - x else b - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= least else math.copysign(least, d))
        if not a < u < b or u == x:
            break
        probe(u)
    return Refinement(fx, nfev, not b - a > _T_TOL * x)


def _better(a: tuple[float, ...], b: tuple[float, ...] | None) -> bool:
    """Deterministic comparator: profit, then smaller F, then T, then t1."""
    if b is None:
        return True
    if a[0] > b[0] + _PROFIT_TIE:
        return True
    if a[0] < b[0] - _PROFIT_TIE:
        return False
    return (a[1], a[2], a[3]) < (b[1], b[2], b[3])


def _candidate_grid(best_at, row_bound, cap: float, n_time: int):
    """The bounded lattice scan: ``(axis, scanned)``.

    ``axis`` holds the ``n_time`` points of ``np.linspace(0, cap,
    n_time)``, and ``scanned`` maps a row index j to P(axis[j]), the best
    point :func:`_slice_search` gives (None where no cycle of that length
    has a profit), for each row solved.  Rows T > 0 are solved in
    descending :func:`_row_bound` order, ties in T order, until a row's
    bound falls below the best P found: no later row can hold the optimum.
    """
    # np.linspace's arithmetic: i times the step (i / n times the cap where
    # the step underflows to 0), and the cap itself last.
    n = n_time - 1
    step = cap / n
    axis = [i * step if step else i / n * cap for i in range(n)] + [cap]
    rows = []
    for j, T in enumerate(axis[1:], 1):
        if T > 0:  # a cycle needs a positive length
            bound = row_bound(T, T)
            # A NaN bound (inf - inf) counts as inf; ties go in T order.
            rows.append((-bound if bound == bound else -math.inf, j))
    rows.sort()

    scanned = {}
    top = -math.inf
    for neg_bound, j in rows:
        if -neg_bound < top:
            break  # neither this row nor any later one can hold the optimum
        scanned[j] = best_at(axis[j])
        if scanned[j] is not None:
            top = max(top, scanned[j][0])
    return axis, scanned


def _select_seeds(scanned) -> list[int]:
    """The lattice local maxima of P: the solved rows j, in order, whose P
    is above row j - 1's and at least row j + 1's, an unsolved row or one
    without a cycle counting as -inf; a run of equal profits is one."""
    def profit(j: int) -> float:
        return scanned[j][0] if scanned.get(j) is not None else -math.inf

    return [j for j in sorted(scanned)
            if profit(j - 1) < profit(j) >= profit(j + 1)]


def solve_equilibrium(problem: EquilibriumProblem,
                      search: SearchSpec = SearchSpec()) -> EquilibriumSolution:
    """Best stationary (policy, fee) pair; deterministic for a fixed search.

    P(T), the best profit of a cycle of length T, is exact at each T
    (:func:`_slice_search`).  It is taken on the T rows of one
    ``n_time``-point axis from 0 to the search cap, in descending
    :func:`_row_bound` order, until a row's bound falls below the best
    P found (:func:`_candidate_grid`).  Each lattice local maximum of P
    (:func:`_select_seeds`) is refined by Brent's method on its two
    neighbouring cells (:func:`minimize`).  So is the first cell, (0,
    T_1], which has no lattice point on its left, unless its bound is
    below the best profit refined.  A refinement whose bracket holds
    T = tau, where P may have a kink, probes it first; while tau is the
    best point, a probe just to either side of it can close the bracket
    on it.  The best refined point wins, ties (within 1e-6 in profit) going
    to the smaller fee, then the shorter cycle, then the shorter t1, and
    the solution is the cycle and fee that point was scored at, checked
    through :func:`signal`, :func:`respond` and
    :func:`profit_rate_with_fees`.  Degenerate optima with lambda_p
    = 0 (premium service priced out at F = f_max) are legitimate outputs.
    A profit that overflows raises :class:`InfeasibleProblem`, as does a
    box with no cycle of finite profit.
    """
    p = problem.params
    cap = search_cap(problem)
    # An overflowing market can push the cap to inf, where the lattice
    # would be NaN: then no cycle of the box can be evaluated.
    if not cap < math.inf:
        raise InfeasibleProblem("no feasible cycle in the search box")
    best_at = _slice_search(problem)
    row_bound = _row_bound(problem)
    axis, scanned = _candidate_grid(best_at, row_bound, cap, search.n_time)

    best_key: tuple[float, float, float, float] | None = None
    best_x: tuple[float, float, float, float, float] | None = None

    def refine(a: float, x: float, b: float, fx) -> None:
        nonlocal best_key, best_x
        point = minimize(best_at, a, x, b, fx, p.tau).x
        pi, t1, s, _, fee = point
        key = (pi, fee, t1 + s, t1)
        if _better(key, best_key):
            best_key, best_x = key, point

    seeds = _select_seeds(scanned)
    for j in seeds:
        refine(axis[j - 1], axis[j], axis[min(j + 1, len(axis) - 1)],
               scanned[j])
    # No lattice point bounds the first cell on its left, so a peak of P
    # inside it shows as no lattice maximum.  Unless its bound rules that
    # out, the cell is refined from its right end too.
    if axis[1] > 0 and 1 not in seeds and not (
            best_key and row_bound(0.0, axis[1]) < best_key[0]):
        first = scanned[1] if 1 in scanned else best_at(axis[1])
        if first is not None:
            refine(0.0, axis[1], axis[1], first)
    if best_x is None:
        raise InfeasibleProblem("no feasible cycle in the search box")
    if best_key[0] == math.inf:
        raise InfeasibleProblem("the profit overflows in the search box")

    # Integer bounds reach the winner as candidates; the solution holds
    # floats whatever the types of the market's fields.
    t1, s, t3, fee = map(float, best_x[1:])
    policy = ShipmentPolicy(t1, s - t3, t3)
    theta = signal(problem.signal_spec, policy, p.tau)
    lam = respond(problem.resp, problem.fee_model, fee, theta)
    profit = profit_rate_with_fees(p, problem.fee_model, policy, fee, lam)
    fee_span = max(p.f_max - p.f_min, 1.0)
    on_bound = min(fee - p.f_min, p.f_max - fee) <= 1e-6 * fee_span
    branch = Branch.NUMERIC_BOUNDARY if on_bound else Branch.NUMERIC_INTERIOR
    return EquilibriumSolution(policy, fee, lam, profit, branch)


def equilibrium_residual(problem: EquilibriumProblem,
                         solution: EquilibriumSolution) -> float:
    """|lambda_p - R(signal(policy))|: stationarity of the demand constraint.

    Zero by construction for :func:`solve_equilibrium` output, whose
    ``lambda_p`` comes from the same ``signal`` and ``respond`` calls; it
    checks solutions built any other way.
    """
    theta = signal(problem.signal_spec, solution.policy, problem.params.tau)
    return abs(solution.lambda_p
               - respond(problem.resp, problem.fee_model, solution.fee, theta))


class FeeRegime(enum.Enum):
    """Which fee-bound case the closed forms assume."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"


def closed_form_t3(problem: EquilibriumProblem, regime: FeeRegime,
                   fee: float | None = None) -> float:
    """Closed-form Phase-3 length for the t3 < tau regime.

    Applies to the delivery-time signal with unit sensitivity (c2 = 1),
    where structure forces t1 = 0 and T = t3.  Eliminating lambda_p turns
    stationarity in t3 into the cubic

        h t3^3 - (r + F/(delta M)) t3^2 - K tau / c1(F) = 0

    (BOUNDARY regime: F pinned at a fee bound; exactly one positive root).
    With the fee interior and a linear fee family, fee stationarity
    additionally gives F*(t3) = (a - b delta M r)/(2b) + delta M h t3/4
    (:func:`best_fee` at T = t3), and substituting it yields the quartic

        3 u^4 - 8 G u^3 + 4 G^2 u^2 + C = 0,
        u = b delta M h t3,  G = a + b delta M r,
        C = 16 b^3 delta^2 M^3 h^2 K tau,

    whose admissible root (0 < t3 < tau, f_min < F* < f_max) with the
    larger profit is returned.  RegimeViolation signals that a t3 = tau or
    fee-boundary regime applies instead.
    """
    import numpy as np  # a cross-check, so a solve never loads NumPy

    p = problem.params
    fm = problem.fee_model
    if problem.signal_spec.kind is not SignalKind.MDT:
        raise UnsupportedSignal("closed forms cover the MDT signal only")
    if problem.resp.c2 != 1:
        raise UnsupportedSignal("closed forms require unit sensitivity (c2 = 1)")

    if regime is FeeRegime.BOUNDARY:
        if fee is None:
            raise InvalidParams("boundary regime needs the pinned fee value")
        c1 = potential_market(fm, fee)
        if c1 <= 0:
            raise RegimeViolation("no premium market at this fee; t3 = tau applies")
        roots = np.roots([p.h, -(p.r + fee / (fm.delta * p.M)), 0.0,
                          -p.K * p.tau / c1])
        real = [float(z.real) for z in roots
                if abs(z.imag) < 1e-9 * max(1.0, abs(z)) and z.real > 0]
        if not real:
            raise RegimeViolation("stationarity cubic has no positive root")
        t3 = max(real)
        if t3 >= p.tau:
            raise RegimeViolation("root exceeds tau; the t3 = tau regime applies")
        return t3

    if fm.family is not FeeFamily.LINEAR:
        raise UnsupportedSignal("interior-fee closed form requires the linear family")
    a, b, delta, M, h = fm.a, fm.b, fm.delta, p.M, p.h
    if b <= 0:
        raise RegimeViolation(
            "with b <= 0 the best fee is a bound; a boundary regime applies")
    G = a + b * delta * M * p.r
    C = 16.0 * b ** 3 * delta ** 2 * M ** 3 * h ** 2 * p.K * p.tau
    roots = np.roots([3.0, -8.0 * G, 4.0 * G * G, 0.0, C])
    scale = b * delta * M * h

    def is_local_max(t3: float, fee: float) -> bool:
        # Hessian of the substituted objective at the stationary point;
        # both axes are always concave, so the determinant decides between
        # a maximum and a saddle.
        d_t3t3 = -(a - b * fee) * delta * h / p.tau - 2.0 * p.K / t3 ** 3
        d_ff = -2.0 * b * t3 / (p.tau * M)
        d_t3f = (delta / p.tau) * (-b * (p.r + fee / (delta * M) - h * t3)
                                   + (a - b * fee) / (delta * M))
        return d_t3t3 * d_ff - d_t3f * d_t3f > 0

    fee_of = best_fee(problem)
    candidates = []
    for z in roots:
        if abs(z.imag) > 1e-7 * max(1.0, abs(z)):
            continue
        t3 = float(z.real) / scale
        if not (0.0 < t3 < p.tau):
            continue
        fee_star = fee_of(t3)[0]
        if not (p.f_min < fee_star < p.f_max):
            continue
        if not is_local_max(t3, fee_star):
            continue
        policy = ShipmentPolicy(0.0, 0.0, t3)
        lam = respond(problem.resp, fm, fee_star,
                      signal(problem.signal_spec, policy, p.tau))
        candidates.append(
            (profit_rate_with_fees(p, fm, policy, fee_star, lam), t3))
    if not candidates:
        raise RegimeViolation(
            "no admissible interior-fee maximum; a boundary regime applies")
    return max(candidates)[1]


@dataclass(frozen=True)
class StructureReport:
    """Structural checks on an equilibrium solution.

    (a) a cycle without fast service has no lost-sales phase either,
    (b) if the realized delivery time beats the declared one, there is no
        fast service, and
    (c) the fast-service phase never exceeds r/h.

    ``findings`` names each check the solution fails.  Under the MDT
    signal all three are required; under NPS the perception driver can
    legitimately break (a)/(b), so only (c) is required.
    """

    required: tuple[str, ...]
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not set(self.required) & set(self.findings)


def check_structure(problem: EquilibriumProblem,
                    solution: EquilibriumSolution) -> StructureReport:
    tol = 1e-6
    p = problem.params
    pol = solution.policy
    a = not (pol.t1 <= tol and pol.t2 > tol)
    b = not (pol.t3 < p.tau - tol and pol.t1 > tol)
    c = pol.t1 <= p.r / p.h + tol
    if problem.signal_spec.kind is SignalKind.MDT:
        required = ("no_phase2_without_phase1", "no_phase1_when_t3_short",
                    "phase1_within_margin_bound")
    else:
        required = ("phase1_within_margin_bound",)
    findings = tuple(name for name, val in (
        ("no_phase2_without_phase1", a),
        ("no_phase1_when_t3_short", b),
        ("phase1_within_margin_bound", c),
    ) if not val)
    return StructureReport(required, findings)


class RecoveryClass(enum.Enum):
    OPT_EQ = "Opt-Eq"
    NON_OPT_EQ = "Non-opt-Eq"
    CYCLES = "Cycles"


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of handing only the optimal fee to a feedback-blind e-tailer.

    ``shortfall_vs_initial`` compares the long-run profit against the
    first-period profit at the stationary-equilibrium demand the process
    was seeded with (the profit the e-tailer sees before the feedback
    erodes it).  ``long_run_lambda`` and the shortfall are None when the
    loop cycles, and the shortfall also when that profit is not positive.
    """

    kind: RecoveryClass
    long_run_lambda: float | None
    shortfall_vs_initial: float | None

    @property
    def label(self) -> str:
        return self.kind.value


def recoverability(problem: EquilibriumProblem,
                   solution: EquilibriumSolution) -> RecoveryReport:
    """Classify whether the fee alone recovers the stationary optimum.

    Runs the feedback loop at the optimal fee from a seed equal to the
    potential market, for at most 500 iterations at tol 1e-4, and labels
    the outcome by where it settled: Opt-Eq (long-run demand and profit
    match the stationary optimum within 1e-3 relative), Non-opt-Eq
    (settled elsewhere) or Cycles.
    """
    p = problem.params
    trace = simulate(p, problem.fee_model, problem.resp, problem.signal_spec,
                     solution.fee, max_iters=500, tol=1e-4)

    if trace.classification.kind is LongRunKind.CYCLE2:
        return RecoveryReport(RecoveryClass.CYCLES, None, None)
    lam_long = trace.settled[0]
    pol = solve_policy(p, lam_long).policy
    profit_long = profit_rate_with_fees(p, problem.fee_model, pol,
                                        solution.fee, lam_long)
    lam_ok = (abs(lam_long - solution.lambda_p)
              <= 1e-3 * max(1.0, solution.lambda_p))
    pi_ok = (abs(profit_long - solution.profit)
             <= 1e-3 * max(1.0, abs(solution.profit)))
    kind = RecoveryClass.OPT_EQ if (lam_ok and pi_ok) else RecoveryClass.NON_OPT_EQ

    initial_profit = trace.points[0].profit
    shortfall = None
    if initial_profit > 0:
        shortfall = 1.0 - profit_long / initial_profit
    return RecoveryReport(kind, lam_long, shortfall)
