"""Joint fee and shipment-policy optimization under stationary feedback.

Here the e-tailer knows how service signals drive premium demand and
picks (t1, t3, T, F) so that the demand the policy *creates* is the
demand it was built for: the stationarity constraint lambda_p =
R(signal) is substituted into the objective.  Two of the four unknowns
have closed forms given the others.  For a fixed policy the best fee
depends on the cycle length alone (:func:`best_fee`).  For a fixed t1
and T, t3 enters the profit only through the signal, which is affine in
t3, and the regular revenue r lambda_r t3 / T, so the best t3 depends on
T and the slack s = T - t1 alone (:func:`_phase3`).  Both are profiled
out, and the problem reduces to a box-constrained search over (t1, s)
with one scalar objective (:func:`_objective`).

The landscape is neither convex nor concave, so the solver seeds from a
deterministic lattice of (t1, T) pairs and polishes each seed with a
bounded two-coordinate Nelder-Mead (:mod:`womops.neldermead`).  The
seeds are the lattice's best points, but a closed-form bound on each T
row's profits (:func:`_row_bound`) leaves most rows unevaluated: the
grid evaluates only rows that can hold a seed, and its seeds are those
of the whole lattice.  The lattice size is capped by
:data:`MAX_GRID_POINTS`.  For the linear-fee, unit-sensitivity,
delivery-time-signal regime with t3 < tau the optimum also has closed
forms (:func:`closed_form_t3`), used as independent cross-checks of the
numeric path.
"""

from __future__ import annotations

import enum
import heapq
import math
import sys
from dataclasses import dataclass

from .domain import (CustomerResponse, FeeFamily, FeeModel, MarketParams,
                     ShipmentPolicy, SignalKind, SignalSpec, cycle_profit,
                     potential_market, profit_rate_with_fees, respond, signal,
                     signal_formula)
from .dynamics import LongRunKind, simulate
from .errors import (InfeasibleProblem, InvalidParams, RegimeViolation,
                     UnsupportedSignal)
from .myopic import solve_policy
from .neldermead import minimize

_SNAP = 5e-6          # polish results this close to t1 = 0 or s = tau snap onto it
_PROFIT_TIE = 1e-6    # profits closer than this are ties (smaller F, then T wins)
_NEWTON_STEPS = 64    # cap on the logarithmic family's Newton iterations
#: Relative widening of the logarithmic family's bound-exit thresholds in
#: :func:`best_fee`, far above Newton's few-ulp error.  The exit returns
#: Newton's fee either way; a wider margin only sends more A to Newton.
_BOUND_EXIT_MARGIN = 1e-9
#: Relative widening of the grid's row bounds (:func:`_row_bound`) on
#: their terms' magnitudes, far above the few ulps a profit rounds by.
_ROW_BOUND_MARGIN = 1e-9
_MAX_POLISH_EVALS = 4000  # objective evaluations per Nelder-Mead polish
_POLISH_FATOL = 1e-8      # Nelder-Mead's tolerance on the simplex's profits
#: The t3 -> 0+ end of Phase 3: the smallest positive float, so the cycle
#: keeps a Phase 3 and its signal is the t3 = 0 limit to within rounding.
_T3_FLOOR = 5e-324

#: Budget on the candidate grid: n_time (n_time - 1) / 2, the (t1, T)
#: pairs with t1 < T on one shared axis.  The row bound usually leaves
#: most of them unevaluated, so this is the worst case of the grid's
#: objective evaluations.  It admits n_time <= 128 (8,128 points); the
#: default n_time=40 counts 780.
MAX_GRID_POINTS = 1 << 13

#: Budget on ``top_n``: each seed adds a Nelder-Mead polish.
MAX_SEEDS = 256


@dataclass(frozen=True)
class SearchSpec:
    """Deterministic search settings: grid density and seed count."""

    n_time: int = 40
    top_n: int = 8

    def __post_init__(self) -> None:
        for name, least in (("n_time", 2), ("top_n", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:  # bool is no count
                raise InvalidParams(
                    f"{name} must be an integer of at least {least}, "
                    f"got {value!r}")
        if self.top_n > MAX_SEEDS:
            raise InvalidParams(
                f"top_n={self.top_n} is over the budget of {MAX_SEEDS} seeds")
        points = self.n_time * (self.n_time - 1) // 2
        if points > MAX_GRID_POINTS:
            raise InvalidParams(
                f"n_time={self.n_time} makes a grid of {points} points, "
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
    """The profit-maximizing fee as a function ``T -> F*(T)`` on floats.

    For a fixed policy the profit is theta^c2 N(F) delta (r - hT/2 +
    F/(delta M)) plus terms free of F, and theta > 0 whenever t3 > 0, so
    the best fee in [f_min, f_max] depends on the cycle length T alone.
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
    """
    p, fm = problem.params, problem.fee_model
    lo, hi = p.f_min, p.f_max
    b = fm.b
    delta_M = fm.delta * p.M

    if hi <= lo or fm.family is FeeFamily.LOGARITHMIC and fm.a == 0:
        return lambda T: lo
    if fm.family is FeeFamily.LINEAR and b > 0:
        base = (fm.a - b * delta_M * p.r) / (2.0 * b)
        slope = delta_M * p.h / 4.0

        def clipped(T: float) -> float:
            fee = base + slope * T
            return lo if fee < lo else hi if fee > hi else fee

        return clipped
    if fm.family is FeeFamily.LINEAR:
        def value(fee: float, T: float) -> float:
            return fm.members(fee) * (p.r - p.h * T / 2.0 + fee / delta_M)

        return lambda T: hi if value(hi, T) > value(lo, T) else lo

    def g(u: float) -> float:
        return u * (math.log(u) + 1.0)

    to_hi = g(b - hi) * (1.0 - _BOUND_EXIT_MARGIN)
    to_hi = max(1.0, to_hi) if to_hi < math.inf else 1.0
    to_lo = g(b - lo) * (1.0 + _BOUND_EXIT_MARGIN)

    def fee_of(T: float) -> float:
        A = delta_M * (p.r - p.h * T / 2.0) + b
        if not A > to_hi:
            return hi
        if A >= to_lo:
            return lo
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
        return lo if fee < lo else hi if fee > hi else fee

    return fee_of


def _fee_terms(problem: EquilibriumProblem):
    """``T -> (F, c1, fee_rate)``: the best fee, c1(F) and F/(delta M).

    F is :func:`best_fee`'s.  Most cycle lengths the solver visits take a
    fee bound, so the triple at each bound is taken once per problem and
    handed out whenever F*(T) equals that bound; only an interior fee
    takes N(F) and the division per call.
    """
    p, fm = problem.params, problem.fee_model
    lo, hi = p.f_min, p.f_max
    fee_of = best_fee(problem)
    members, delta, delta_M = fm.members, fm.delta, fm.delta * p.M

    def terms(fee: float) -> tuple[float, float, float]:
        return fee, members(fee) * delta, fee / delta_M

    at_lo, at_hi = terms(lo), terms(hi)

    def fee_terms(T: float) -> tuple[float, float, float]:
        fee = fee_of(T)
        if fee == lo:
            return at_lo
        if fee == hi:
            return at_hi
        return terms(fee)

    return fee_terms


def _phase3(problem: EquilibriumProblem):
    """The best Phase-3 length ``(T, s, c1, fee_rate) -> t3`` on floats.

    T is the cycle length, s = T - t1 the slack, and c1 = c1(F) and
    fee_rate = F/(delta M) belong to the cycle's fee.  With the premium
    margin Q = c1 (r + fee_rate - hT/2), :func:`cycle_profit` depends on
    t3 in (0, U], U = min(tau, s), only through theta^c2 Q + r lambda_r
    t3 / T, and theta = beta + alpha t3 is affine in t3, alpha the MDT
    weight over tau.  So t3 = U when Q >= 0, alpha = 0 or c2 = 0.
    Otherwise, with c2 <= 1 that term is convex in t3 and the better end
    wins: U, on a tie too, or t3 -> 0+, taken as :data:`_T3_FLOOR`.  With
    c2 > 1 it is concave and t3 is the root of c2 alpha theta^(c2-1) Q +
    r lambda_r / T = 0, clipped to [_T3_FLOOR, U].  This is the one copy
    of the rule; the grid and the polish both reach it through
    :func:`_objective`.
    """
    p, c2 = problem.params, problem.resp.c2
    spec, tau = problem.signal_spec, p.tau
    theta_of = signal_formula(spec)
    # With t2 + t3 = 0 the NPS part is 0, and with t3 = tau = 1 the MDT
    # part is 1, so the formula gives the MDT weight.
    alpha = theta_of(spec, -1.0, 1.0, 1.0, 1.0) / tau
    r, h, rl = p.r, p.h, p.r * p.lambda_r

    if not (alpha > 0 and c2 > 0):
        return lambda T, s, c1, fee_rate: s if s < tau else tau

    def t3_of(T: float, s: float, c1: float, fee_rate: float) -> float:
        U = s if s < tau else tau
        Q = c1 * (r + fee_rate - h * T / 2.0)
        if Q >= 0:
            return U
        theta_u = theta_of(spec, s - U, U, T, tau)
        beta = theta_of(spec, s, 0.0, T, tau)
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


def _objective(problem: EquilibriumProblem):
    """Scalar objective ``(t1, s) -> -profit`` of one problem.

    The fee-inclusive profit rate with lambda_p = R(theta) substituted,
    the cycle T = t1 + s, the fee at F*(T) (:func:`best_fee`) and t3 at
    its best for (T, s) (:func:`_phase3`), negated for minimization;
    ``inf`` outside the box (a negative phase or no slack for Phase 3).
    A cycle longer than the search cap takes the profit at the cap with
    the same t1: in the priced-out regime the profit otherwise climbs
    forever toward the unattained stretched-cycle supremum, and the polish
    can slide along the wall T = cap of its square box, where it would
    stall if the far side were ``inf``.  The fee, c1(F) and F/(delta M)
    come from :func:`_fee_terms` once per evaluation; it holds them for
    the two fee bounds.  Built once per problem, with the signal's formula
    and the constants bound as locals.
    """
    p = problem.params
    cap = search_cap(problem)
    spec, tau = problem.signal_spec, p.tau
    theta_of = signal_formula(spec)
    fee_terms = _fee_terms(problem)
    t3_of = _phase3(problem)
    c2 = problem.resp.c2

    def neg_profit(t1: float, s: float) -> float:
        T = t1 + s
        if T > cap:
            # Past the wall T = cap, the point at the wall.
            s = cap - t1
            T = t1 + s
        if t1 < 0 or s <= 0:
            return math.inf
        _, c1, fee_rate = fee_terms(T)
        t3 = t3_of(T, s, c1, fee_rate)
        lam = c1 * theta_of(spec, s - t3, t3, T, tau) ** c2
        return -cycle_profit(p, lam, fee_rate, t1, t3, T)

    return neg_profit


def _row_bound(problem: EquilibriumProblem):
    """``(T, c1, fee_rate) -> bound`` on every grid profit of one T row.

    With the row's fee terms c1 = c1(F) and fee_rate = F/(delta M) at
    F = F*(T) (:func:`_fee_terms`), the bound is

        c1 max(0, r + fee_rate - hT/2)
            + (lambda_r min(rT, r^2/(2h) + r tau) - K) / T.

    It holds since lambda = c1 theta^c2 <= c1 (theta in [0, 1], c2 >= 0),
    t1 + t3 <= min(T, t1 + tau) and r (t1 + tau) - h t1^2/2 <= r^2/(2h)
    + r tau.  F*(T) maximizes c1(F) (r + F/(delta M) - hT/2) over the fee
    box, so it also covers a point whose t1 + s rounds to a T one ulp
    away, at that T's fee.  The bound is widened by
    :data:`_ROW_BOUND_MARGIN` of its terms' magnitudes, plus the smallest
    normal float for rounding below the normal range.  T must be positive.
    """
    p = problem.params
    r, h, K, lam_r = p.r, p.h, p.K, p.lambda_r
    peak = r * r / (2.0 * h) + r * p.tau

    def bound(T: float, c1: float, fee_rate: float) -> float:
        regular = lam_r * min(r * T, peak)
        # max(margin, 0.0), not max(0.0, margin), keeps a NaN margin.
        return (c1 * max(r + fee_rate - h * T / 2.0, 0.0) + (regular - K) / T
                + _ROW_BOUND_MARGIN * (c1 * (r + fee_rate + h * T / 2.0)
                                       + (regular + K) / T)
                + sys.float_info.min)

    return bound


def _candidate_grid(problem: EquilibriumProblem, search: SearchSpec):
    """The grid points (t1, s, T, F) that can hold a seed, and their profits.

    t1 and T run over one axis from 0 to the search cap, and the lattice
    holds each pair with t1 < T, so the slack s = T - t1 is positive.
    Each T row takes its fee terms once (:func:`_fee_terms`), and with
    them its :func:`_row_bound`; a NaN bound (inf - inf) counts as inf.
    Rows are scanned whole, in descending bound order (ties in T order),
    and the scan stops at the first row whose bound lies below the
    ``top_n``-th best finite profit found so far: neither that row nor any
    later one can hold a seed.  Each profit is the objective's
    (:func:`_objective`).  The finite points of the rows scanned come back
    as five columns (t1, s, T, F, profit), in scan order.
    """
    neg_profit = _objective(problem)
    fee_terms = _fee_terms(problem)
    row_bound = _row_bound(problem)
    cap = search_cap(problem)
    # np.linspace's arithmetic: i times the step (i / n times the cap where
    # the step underflows to 0), and the cap itself last.
    n = search.n_time - 1
    step = cap / n
    axis = [i * step if step else i / n * cap for i in range(n)] + [cap]
    rows = []
    for j, T in enumerate(axis[1:], 1):
        if not T > 0:
            continue  # every t1 >= 0 leaves no slack
        fee, c1, fee_rate = fee_terms(T)
        bound = row_bound(T, c1, fee_rate)
        rows.append((-bound if bound == bound else -math.inf, j, T, fee))
    rows.sort()

    points = []
    best: list[float] = []  # the top_n best finite profits, a min-heap
    for neg_bound, j, T, fee in rows:
        if len(best) == search.top_n and -neg_bound < best[0]:
            break
        for t1 in axis[:j]:
            profit = -neg_profit(t1, T - t1)
            if math.isfinite(profit):
                points.append((t1, T - t1, T, fee, profit))
                if len(best) < search.top_n:
                    heapq.heappush(best, profit)
                elif profit > best[0]:
                    heapq.heapreplace(best, profit)
    return tuple(map(list, zip(*points))) if points else ([], [], [], [], [])


def _select_seeds(t1, s, T, F, profit, search: SearchSpec):
    """The ``top_n`` best grid points (t1, s), in (profit, F, T, t1) order.

    Grid points are distinct lattice points, so no seed duplicates
    another and no two share a sort key.
    """
    # The first top_n of sorted(..., key=...), without sorting the rest.
    order = heapq.nsmallest(search.top_n, range(len(profit)),
                            key=lambda i: (-profit[i], F[i], T[i], t1[i]))
    return [(t1[i], s[i]) for i in order]


def _seeds(problem: EquilibriumProblem, search: SearchSpec):
    """Polish seeds (t1, s): the whole profiled lattice's best points."""
    # An overflowing market can push the cap to inf, where the lattice
    # would be NaN: then no cycle of the box can be evaluated.
    if search_cap(problem) < math.inf:
        grid = _candidate_grid(problem, search)
        if grid[-1]:
            return _select_seeds(*grid, search)
    raise InfeasibleProblem("no feasible cycle in the search box")


def _better(a: tuple[float, ...], b: tuple[float, ...] | None) -> bool:
    """Deterministic comparator: profit, then smaller F, then T, then t1."""
    if b is None:
        return True
    if a[0] > b[0] + _PROFIT_TIE:
        return True
    if a[0] < b[0] - _PROFIT_TIE:
        return False
    return (a[1], a[2], a[3]) < (b[1], b[2], b[3])


def _snap(value: float, bound: float) -> float:
    return bound if abs(value - bound) < _SNAP else value


def solve_equilibrium(problem: EquilibriumProblem,
                      search: SearchSpec = SearchSpec()) -> EquilibriumSolution:
    """Best stationary (policy, fee) pair; deterministic for a fixed search.

    Grid seeds are polished with Nelder-Mead on (t1, s) inside the box,
    the fee at F*(T) and t3 at its best for (T, s); the best polished
    point wins, with ties (within 1e-6 in profit) resolved toward the
    smaller fee, then the shorter cycle.  Degenerate optima with
    lambda_p = 0 (premium service priced out at F = f_max) are legitimate
    outputs.
    """
    p = problem.params
    cap = search_cap(problem)
    seeds = _seeds(problem, search)

    best_key: tuple[float, float, float, float] | None = None
    best_x: tuple[float, float] | None = None

    neg_profit = _objective(problem)
    fee_terms = _fee_terms(problem)

    def consider(x: tuple[float, float]) -> None:
        nonlocal best_key, best_x
        t1, s = x
        if t1 + s > cap:
            # The objective's point at the wall T = cap.
            s = cap - t1
            x = (t1, s)
        pi = -neg_profit(t1, s)
        if not math.isfinite(pi):
            return
        T = t1 + s
        key = (pi, fee_terms(T)[0], T, t1)
        if _better(key, best_key):
            best_key, best_x = key, x

    bounds = [(0.0, cap), (0.0, cap)]
    for seed in seeds:
        raw = minimize(neg_profit, seed, bounds, xatol=1e-9,
                       fatol=_POLISH_FATOL, maxfev=_MAX_POLISH_EVALS).x
        # s = tau is the kink where t3 = min(tau, s) stops growing.  The
        # polish closes in on it without landing on it, so a snapped point
        # wins a tie with its raw one.
        snapped = (_snap(raw[0], 0.0), _snap(raw[1], p.tau))
        if snapped != raw and (-neg_profit(*snapped)
                               >= -neg_profit(*raw) - _PROFIT_TIE):
            raw = snapped
        consider(raw)

    if best_x is None:
        raise InfeasibleProblem("polish produced no feasible point")

    # Integer bounds reach the winner through the clip and the snap; the
    # solution holds floats whatever the types of the market's fields.
    t1, s = map(float, best_x)
    T = t1 + s
    fee, c1, fee_rate = fee_terms(T)
    fee = float(fee)
    t3 = float(_phase3(problem)(T, s, c1, fee_rate))
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
        fee_star = fee_of(t3)
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
