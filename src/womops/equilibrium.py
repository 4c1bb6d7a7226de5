"""Joint fee and shipment-policy optimization under stationary feedback.

Here the e-tailer knows how service signals drive premium demand and
picks (t1, t3, T, F) so that the demand the policy *creates* is the
demand it was built for: the stationarity constraint lambda_p =
R(signal) is substituted into the objective.  For a fixed policy the
best fee then depends on the cycle length alone (:func:`best_fee`), so
the fee is profiled out and the problem reduces to a box-constrained
search over (t1, t2, t3) with t2 = T - t1 - t3 >= 0.

The landscape is neither convex nor concave, so the solver evaluates a
dense deterministic coarse grid (augmented with the t2 = 0 plane, where
most optima live) in one pass, keeps the best well-separated seeds and
polishes each with a bounded Nelder-Mead (:mod:`womops.neldermead`).
The grid size is capped by :data:`MAX_GRID_POINTS`.  For the linear-fee,
unit-sensitivity, delivery-time-signal regime with t3 < tau the optimum
also has closed forms (:func:`closed_form_t3`), used as independent
cross-checks of the numeric path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .domain import (CustomerResponse, FeeFamily, FeeModel, MarketParams,
                     ShipmentPolicy, SignalKind, SignalSpec, cycle_profit,
                     potential_market, profit_rate_with_fees, respond, signal,
                     signal_formula, signal_value)
from .dynamics import LongRunKind, simulate
from .errors import (InfeasibleProblem, InvalidParams, RegimeViolation,
                     UnsupportedSignal)
from .myopic import solve_policy
from .neldermead import minimize

_SNAP = 5e-6          # polish results this close to a bound are snapped onto it
_PROFIT_TIE = 1e-6    # profits closer than this are ties (smaller F, then T wins)
_HEAD_PER_SEED = 8    # grid points sorted per requested seed before the rest
_NEWTON_STEPS = 64    # cap on the logarithmic family's Newton iterations
_MAX_POLISH_EVALS = 4000  # objective evaluations per Nelder-Mead polish
_POLISH_FATOL = 1e-8      # Nelder-Mead's tolerance on the simplex's profits

#: Budget on the candidate grid: n_time^2 * (n_time - 1), the points of
#: the full (t1, t3, T) box plus the t2 = 0 plane, before the T >= t1 + t3
#: cut.  The grid is evaluated in one pass, so the budget bounds its memory
#: as well as its time: it admits n_time <= 128 (2.08 M points, about
#: 125 MB at the peak).  The default n_time=40 counts 62,400 points.
MAX_GRID_POINTS = 1 << 21

#: Budget on ``top_n``.  Seed selection compares every sorted grid point
#: with every accepted seed, so its cost grows with the square of the
#: seed count, and each seed adds a Nelder-Mead polish.
MAX_SEEDS = 256


@dataclass(frozen=True)
class SearchSpec:
    """Deterministic search settings: grid density and seed count."""

    n_time: int = 40
    top_n: int = 8

    def __post_init__(self) -> None:
        if self.n_time < 2 or self.top_n < 1:
            raise InvalidParams("grid resolutions must be positive")
        if self.top_n > MAX_SEEDS:
            raise InvalidParams(
                f"top_n={self.top_n} is over the budget of {MAX_SEEDS} seeds")
        points = self.n_time ** 2 * (self.n_time - 1)
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
    when A <= 1 (F* = f_max) and otherwise peaks at the root of u (ln u +
    1) = A, found by Newton from u = A and clipped.
    """
    p, fm = problem.params, problem.fee_model
    lo, hi = p.f_min, p.f_max
    delta_M = fm.delta * p.M

    def clip(fee: float) -> float:
        return min(max(fee, lo), hi)

    if hi <= lo or fm.family is FeeFamily.LOGARITHMIC and fm.a == 0:
        return lambda T: lo
    if fm.family is FeeFamily.LINEAR and fm.b > 0:
        base = (fm.a - fm.b * delta_M * p.r) / (2.0 * fm.b)
        slope = delta_M * p.h / 4.0
        return lambda T: clip(base + slope * T)
    if fm.family is FeeFamily.LINEAR:
        def value(fee: float, T: float) -> float:
            return fm.members(fee) * (p.r - p.h * T / 2.0 + fee / delta_M)

        return lambda T: hi if value(hi, T) > value(lo, T) else lo

    def fee_of(T: float) -> float:
        A = delta_M * (p.r - p.h * T / 2.0) + fm.b
        if not A > 1.0:
            return hi
        if A == math.inf:
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
        return clip(fm.b - u)

    return fee_of


def _objective(problem: EquilibriumProblem):
    """Scalar objective ``(t1, t2, t3) -> -profit`` of one problem.

    The fee-inclusive profit rate with lambda_p = R(theta) substituted and
    the fee at F*(T) (:func:`best_fee`), negated for minimization; ``inf``
    outside the box (a negative phase, no Phase 3, or a cycle longer than
    the search cap).  A polish that runs into t3 = 0 therefore turns back
    toward t3 > 0 instead of ending on a cycle no solution may have.  Built
    once per problem, with the signal's formula and the constants bound as
    locals.  Inside the box t3 <= tau, as the polish clips t3 to [0, tau].
    """
    p = problem.params
    cap = search_cap(problem)
    fm = problem.fee_model
    spec, tau = problem.signal_spec, p.tau
    theta_of = signal_formula(spec)
    fee_of = best_fee(problem)
    members = fm.members
    delta, delta_M = fm.delta, fm.delta * p.M
    c2 = problem.resp.c2

    def neg_profit(t1: float, t2: float, t3: float) -> float:
        if t1 < 0 or t2 < 0 or t3 <= 0:
            return math.inf
        T = t1 + t2 + t3
        # Cycles beyond the search cap are outside the box; in the priced-
        # out regime the profit otherwise climbs forever toward the
        # unattained stretched-cycle supremum.
        if T > cap:
            return math.inf
        fee = fee_of(T)
        lam = members(fee) * delta * theta_of(spec, t2, t3, T, tau) ** c2
        return -cycle_profit(p, lam, fee / delta_M, t1, t3, T)

    return neg_profit


def _candidate_grid(problem: EquilibriumProblem, search: SearchSpec):
    """Every grid point (t1, t2, t3, F) with a finite profit, and the profits.

    The grid is the box over (t1, t3, T) with the cycle capped at the
    search cap, plus the t2 = 0 plane T = t1 + t3 where the structural
    results put most optima.  Each point takes the fee F*(T) of its grid
    cycle length (:func:`best_fee`); the fee and N(F) are computed once per
    distinct T, the rest in one vectorized pass.  Points keep grid order,
    box first, the order in which the stable sort of :func:`_select_seeds`
    breaks ties.
    """
    p = problem.params
    fm = problem.fee_model
    cap = search_cap(problem)
    fee_of = best_fee(problem)
    t1g = np.linspace(0.0, cap, search.n_time)
    t3g = np.linspace(0.0, p.tau, search.n_time)[1:]
    Tg = np.linspace(0.0, cap, search.n_time)[1:]
    i, j, l = np.nonzero(Tg[None, None, :] - t1g[:, None, None]
                         - t3g[None, :, None] >= -1e-12)
    pi, pj = np.nonzero(t1g[:, None] + t3g[None, :] <= cap + 1e-12)
    # The distinct cycle lengths: the T axis, then one per plane point.
    lengths = np.concatenate([Tg, t1g[pi] + t3g[pj]])
    fees = np.array([fee_of(T) for T in lengths.tolist()], dtype=float)
    c1 = np.array([fm.members(fee) for fee in fees.tolist()]) * fm.delta
    which = np.concatenate([l, Tg.size + np.arange(pi.size)])
    t1 = np.concatenate([t1g[i], t1g[pi]])
    t3 = np.concatenate([t3g[j], t3g[pj]])
    t2 = np.maximum(lengths[which] - t1 - t3, 0.0)
    T = t1 + t2 + t3
    response = (signal_value(problem.signal_spec, t2, t3, T, p.tau)
                ** problem.resp.c2)
    F = fees[which]
    prof = cycle_profit(p, c1[which] * response, F / (fm.delta * p.M),
                        t1, t3, T)
    # The objective's box test: a point on the last T value can recompute
    # T = t1 + t2 + t3 one rounding above the cap.
    keep = np.isfinite(prof) & (T <= cap)
    return t1[keep], t2[keep], t3[keep], F[keep], prof[keep]


def _select_seeds(t1f, t2f, t3f, Ff, prof, search: SearchSpec,
                  cap: float, tau: float):
    """Best candidates, skipping near-duplicates of already accepted seeds.

    Separation below one grid cell in every phase counts as a duplicate;
    this keeps the polish seeds spread over distinct basins.  Fully
    deterministic: candidates are visited in (profit, F, T, t1) order.
    Only the points at or above the k-th best profit (ties kept), k a
    few per seed, are sorted first: they are exactly the head of that
    order.  The rest is sorted and scanned only if they run short.
    """
    Tf = t1f + t2f + t3f
    dt = cap / (search.n_time - 1)
    d3 = tau / (search.n_time - 1)
    k = min(_HEAD_PER_SEED * search.top_n, prof.size)
    head = prof >= -np.partition(-prof, k - 1)[k - 1]
    seeds: list[tuple[float, float, float]] = []
    for part in (head, ~head):
        idx = np.flatnonzero(part)
        for i in idx[np.lexsort((t1f[idx], Tf[idx], Ff[idx], -prof[idx]))]:
            cand = (float(t1f[i]), float(t2f[i]), float(t3f[i]))
            if not any(abs(cand[0] - s[0]) < dt and abs(cand[1] - s[1]) < dt
                       and abs(cand[2] - s[2]) < d3 for s in seeds):
                seeds.append(cand)
                if len(seeds) >= search.top_n:
                    return seeds
    return seeds


def _seeds(problem: EquilibriumProblem, search: SearchSpec):
    """Polish seeds (t1, t2, t3) from the whole profiled grid."""
    # Extreme markets overflow on parts of the grid; the grid drops the
    # non-finite profits that result.
    with np.errstate(over="ignore", invalid="ignore"):
        grid = _candidate_grid(problem, search)
    if grid[-1].size == 0:
        raise InfeasibleProblem("no feasible cycle in the search box")
    return _select_seeds(*grid, search, search_cap(problem),
                         problem.params.tau)


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

    Grid seeds are polished with Nelder-Mead on (t1, t2, t3) inside the
    box, the fee at F*(T); the best polished point wins, with ties (within
    1e-6 in profit) resolved toward the smaller fee, then the shorter
    cycle.  Degenerate optima with lambda_p = 0 (premium service priced
    out at F = f_max) are legitimate outputs.
    """
    p = problem.params
    cap = search_cap(problem)
    seeds = _seeds(problem, search)

    best_key: tuple[float, float, float, float] | None = None
    best_x: tuple[float, float, float] | None = None

    neg_profit = _objective(problem)
    fee_of = best_fee(problem)

    def consider(x: tuple[float, float, float]) -> None:
        nonlocal best_key, best_x
        t1, t2, t3 = x
        pi = -neg_profit(t1, t2, t3)
        if not math.isfinite(pi):
            return
        T = t1 + t2 + t3
        key = (pi, fee_of(T), T, t1)
        if _better(key, best_key):
            best_key, best_x = key, x

    bounds = [(0.0, cap), (0.0, cap), (0.0, p.tau)]
    for seed in seeds:
        raw = minimize(neg_profit, seed, bounds, xatol=1e-9,
                       fatol=_POLISH_FATOL, maxfev=_MAX_POLISH_EVALS).x
        consider(raw)
        snapped = (_snap(raw[0], 0.0), _snap(raw[1], 0.0), _snap(raw[2], p.tau))
        if snapped != raw:
            consider(snapped)

    if best_x is None:
        raise InfeasibleProblem("polish produced no feasible point")

    # Integer bounds reach the winner through the clip and the snap; the
    # solution holds floats whatever the types of the market's fields.
    t1, t2, t3 = map(float, best_x)
    fee = float(best_key[1])
    policy = ShipmentPolicy(t1, t2, t3)
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

    neg_profit = _objective(problem)
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
        candidates.append((-neg_profit(0.0, 0.0, t3), t3))
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
