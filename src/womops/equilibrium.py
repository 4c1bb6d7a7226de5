"""Joint fee and shipment-policy optimization under stationary feedback.

Here the e-tailer knows how service signals drive premium demand and
picks (t1, t3, T, F) so that the demand the policy *creates* is the
demand it was built for: the stationarity constraint lambda_p =
R(signal) is substituted into the objective, reducing the problem to a
box-constrained search over (t1, t2, t3, F) with t2 = T - t1 - t3 >= 0.

The landscape is neither convex nor concave, so the solver searches a
dense deterministic coarse grid (augmented with the t2 = 0 plane, where
most optima live), keeps the best well-separated seeds and polishes each
with a bounded Nelder-Mead (:mod:`womops.neldermead`).  The grid is
evaluated in bounded chunks and only a pool of its most profitable
points is kept; the seeds drawn from the pool are exactly those a full
sort of the grid would give.  The grid size is capped by
:data:`MAX_GRID_POINTS`.  For the linear-fee, unit-sensitivity,
delivery-time-signal regime with t3 < tau the optimum also has closed
forms (:func:`closed_form_t3`), used as independent cross-checks of the
numeric path.
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
_CHUNK = 1 << 17      # grid points evaluated at once by the candidate search
_POOL_PER_SEED = 8    # candidates pooled per requested seed (doubled if short)

#: Budget on the candidate grid: n_fee * n_time^2 * (n_time - 1), the
#: points of the full (t1, t3, T) box plus the t2 = 0 plane for every fee
#: value, before the T >= t1 + t3 cut.  It bounds the search time (under
#: a second per solve at the budget); memory is bounded by ``_CHUNK``
#: whatever the grid.  The default n_time=40, n_fee=30 counts 1.87 M
#: points and n_time=80 15.2 M.
MAX_GRID_POINTS = 1 << 24

#: Budget on ``top_n``.  Seed selection compares every pooled candidate
#: with every accepted seed, so its cost grows with the square of the
#: seed count, and each seed adds a Nelder-Mead polish.
MAX_SEEDS = 256


@dataclass(frozen=True)
class SearchSpec:
    """Deterministic search settings: grid density, seed count, polish tolerance."""

    n_time: int = 40
    n_fee: int = 30
    top_n: int = 8
    polish_tol: float = 1e-8
    max_polish_evals: int = 4000

    def __post_init__(self) -> None:
        if self.n_time < 2 or self.n_fee < 1 or self.top_n < 1:
            raise InvalidParams("grid resolutions must be positive")
        if self.polish_tol <= 0:
            raise InvalidParams("polish_tol must be > 0")
        if self.top_n > MAX_SEEDS:
            raise InvalidParams(
                f"top_n={self.top_n} is over the budget of {MAX_SEEDS} seeds")
        points = self.n_fee * self.n_time ** 2 * (self.n_time - 1)
        if points > MAX_GRID_POINTS:
            raise InvalidParams(
                f"n_time={self.n_time}, n_fee={self.n_fee} make a grid of "
                f"{points} points, over the budget of {MAX_GRID_POINTS}")


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


def _objective(problem: EquilibriumProblem, cap: float = math.inf):
    """Scalar objective ``(t1, t2, t3, F) -> -profit`` of one problem.

    The fee-inclusive profit rate with lambda_p = R(theta) substituted,
    negated for minimization; ``inf`` outside the box (a negative phase,
    an empty cycle, or a cycle longer than ``cap``).  Built once per
    problem, with the signal's formula and the constants bound as locals.
    Inside the box t3 <= tau, as the polish clips t3 to [0, tau].
    """
    p = problem.params
    fm = problem.fee_model
    spec, tau = problem.signal_spec, p.tau
    theta_of = signal_formula(spec)
    members = fm.members
    delta, delta_M = fm.delta, fm.delta * p.M
    c2 = problem.resp.c2

    def neg_profit(t1: float, t2: float, t3: float, fee: float) -> float:
        if t1 < 0 or t2 < 0 or t3 < 0:
            return math.inf
        T = t1 + t2 + t3
        # Cycles beyond the search cap are outside the box; in the priced-
        # out regime the profit otherwise climbs forever toward the
        # unattained stretched-cycle supremum.
        if T <= 0 or T > cap:
            return math.inf
        lam = members(fee) * delta * theta_of(spec, t2, t3, T, tau) ** c2
        return -cycle_profit(p, lam, fee / delta_M, t1, t3, T)

    return neg_profit


def _candidate_grid(problem: EquilibriumProblem, search: SearchSpec, k: int):
    """The k most profitable grid points (t1, t2, t3, F) and their profits.

    The grid is the box over (t1, t3, T) with the cycle capped at the
    search cap, plus the t2 = 0 plane T = t1 + t3 where the structural
    results put most optima, crossed with the fee axis.  It is evaluated
    in chunks of about ``_CHUNK`` points, a block of t1 rows against all
    fees at once (by broadcasting): N(F) is computed once per fee, theta
    and T once per block, and the fee-free profit terms once per point of
    a chunk.  Only a running pool of the k best finite profits is
    kept, every tie at the k-th profit included: memory stays bounded
    whatever the grid size.  Points that tie in (profit, F, T, t1) share a
    fee and a t1 row, so they come from one chunk and stay in grid order,
    the order in which the stable sort of :func:`_select_seeds` breaks
    such ties.
    """
    p = problem.params
    fm = problem.fee_model
    spec = problem.signal_spec
    cap = search_cap(problem)
    t1g = np.linspace(0.0, cap, search.n_time)
    t3g = np.linspace(0.0, p.tau, search.n_time)[1:]
    Tg = np.linspace(0.0, cap, search.n_time)[1:]
    if p.f_max > p.f_min:
        Fg = np.linspace(p.f_min, p.f_max, search.n_fee)
    else:
        Fg = np.array([p.f_min])
    c1 = np.array([fm.members(fee) for fee in Fg.tolist()]) * fm.delta
    fee_rate = Fg / (fm.delta * p.M)

    pool = (np.empty(0),) * 5
    rows = max(1, _CHUNK // (Fg.size * t3g.size * (Tg.size + 1)))
    for lo in range(0, t1g.size, rows):
        t1r = t1g[lo:lo + rows]
        i, j, l = np.nonzero(Tg[None, None, :] - t1r[:, None, None]
                             - t3g[None, :, None] >= -1e-12)
        pi, pj = np.nonzero(t1r[:, None] + t3g[None, :] <= cap + 1e-12)
        t1b = np.concatenate([t1r[i], t1r[pi]])
        t3b = np.concatenate([t3g[j], t3g[pj]])
        Tb = np.concatenate([Tg[l], t1r[pi] + t3g[pj]])
        t2b = np.maximum(Tb - t1b - t3b, 0.0)
        T = t1b + t2b + t3b
        response = signal_value(spec, t2b, t3b, T, p.tau) ** problem.resp.c2
        fees = max(1, _CHUNK // max(t1b.size, 1))
        for f0 in range(0, Fg.size, fees):
            lam = c1[f0:f0 + fees, None] * response
            prof = cycle_profit(p, lam, fee_rate[f0:f0 + fees, None],
                                t1b, t3b, T).ravel()
            best = _best_k(prof, k)
            f, b = np.divmod(best, t1b.size)
            chunk = (t1b[b], t2b[b], t3b[b], Fg[f0 + f], prof[best])
            pool = tuple(np.concatenate(pair) for pair in zip(pool, chunk))
            keep = _best_k(pool[-1], k)
            pool = tuple(a[keep] for a in pool)
    return pool


def _best_k(prof, k: int):
    """Indices of the k best finite profits, every tie at the k-th one kept."""
    keep = np.isfinite(prof)
    if np.count_nonzero(keep) > k:
        keep &= prof >= -np.partition(-prof[keep], k - 1)[k - 1]
    return np.flatnonzero(keep)


def _select_seeds(t1f, t2f, t3f, Ff, prof, search: SearchSpec,
                  cap: float, tau: float, fee_span: float):
    """Best candidates, skipping near-duplicates of already accepted seeds.

    Separation below one grid cell in every coordinate counts as a
    duplicate; this keeps the polish seeds spread over distinct basins.
    Fully deterministic: candidates are visited in (profit, F, T, t1)
    order.
    """
    Tf = t1f + t2f + t3f
    order = np.lexsort((t1f, Tf, Ff, -prof))
    dt = cap / (search.n_time - 1)
    d3 = tau / (search.n_time - 1)
    df = fee_span / max(search.n_fee - 1, 1)
    seeds: list[tuple[float, float, float, float]] = []
    for idx in order:
        cand = (float(t1f[idx]), float(t2f[idx]), float(t3f[idx]), float(Ff[idx]))
        dup = any(abs(cand[0] - s[0]) < dt and abs(cand[1] - s[1]) < dt
                  and abs(cand[2] - s[2]) < d3
                  and abs(cand[3] - s[3]) < df + 1e-12
                  for s in seeds)
        if not dup:
            seeds.append(cand)
        if len(seeds) >= search.top_n:
            break
    return seeds


def _seeds(problem: EquilibriumProblem, search: SearchSpec):
    """Polish seeds: those a full sort of the whole grid would select.

    The pool is a prefix of the grid's (profit, F, T, t1) order, so seeds
    picked from it are the full sort's as long as it holds enough of them;
    when it runs short while grid points outside it remain, the search is
    redone with a pool twice the size.
    """
    p = problem.params
    cap = search_cap(problem)
    k = _POOL_PER_SEED * search.top_n
    while True:
        # Extreme markets overflow on parts of the grid; _best_k drops
        # the non-finite profits that result.
        with np.errstate(over="ignore", invalid="ignore"):
            t1f, t2f, t3f, Ff, prof = _candidate_grid(problem, search, k)
        if prof.size == 0:
            raise InfeasibleProblem("no feasible cycle in the search box")
        seeds = _select_seeds(t1f, t2f, t3f, Ff, prof, search, cap, p.tau,
                              max(p.f_max - p.f_min, 1.0))
        # A pool of fewer than k points already holds every finite one.
        if len(seeds) >= search.top_n or prof.size < k:
            return seeds
        k *= 2


def _better(a: tuple[float, ...], b: tuple[float, ...] | None) -> bool:
    """Deterministic comparator: profit, then smaller F, then T, then t1."""
    if b is None:
        return True
    if a[0] > b[0] + _PROFIT_TIE:
        return True
    if a[0] < b[0] - _PROFIT_TIE:
        return False
    return (a[1], a[2], a[3]) < (b[1], b[2], b[3])


def _snap(value: float, *bounds: float) -> float:
    for bound in bounds:
        if abs(value - bound) < _SNAP:
            return bound
    return value


def solve_equilibrium(problem: EquilibriumProblem,
                      search: SearchSpec = SearchSpec()) -> EquilibriumSolution:
    """Best stationary (policy, fee) pair; deterministic for a fixed search.

    Grid seeds are polished with Nelder-Mead on (t1, t2, t3, F) inside the
    box; the best polished point wins, with ties (within 1e-6 in profit)
    resolved toward the smaller fee, then the shorter cycle.  Degenerate
    optima with lambda_p = 0 (premium service priced out at F = f_max) are
    legitimate outputs.
    """
    p = problem.params
    cap = search_cap(problem)
    seeds = _seeds(problem, search)

    # A pinned fee is held fixed, so the polish searches the phases only.
    dims = 3 if p.f_max <= p.f_min else 4
    best_key: tuple[float, float, float, float] | None = None
    best_x: tuple[float, float, float, float] | None = None

    neg_profit = _objective(problem, cap)

    def consider(x: tuple[float, float, float, float]) -> None:
        nonlocal best_key, best_x
        t1, t2, t3, fee = x
        if t3 <= 0:
            return
        pi = -neg_profit(t1, t2, t3, fee)
        if not math.isfinite(pi):
            return
        key = (pi, fee, t1 + t2 + t3, t1)
        if _better(key, best_key):
            best_key, best_x = key, x

    bounds = [(0.0, cap), (0.0, cap), (0.0, p.tau), (p.f_min, p.f_max)]
    options = dict(xatol=1e-9, fatol=search.polish_tol,
                   maxfev=search.max_polish_evals)
    for seed in seeds:
        res = minimize(neg_profit, seed[:dims], bounds[:dims], seed[dims:],
                       **options)
        raw = (*res.x, *seed[dims:])
        consider(raw)
        snapped = (_snap(raw[0], 0.0), _snap(raw[1], 0.0),
                   _snap(raw[2], p.tau), _snap(raw[3], p.f_min, p.f_max))
        if snapped != raw:
            consider(snapped)

    if best_x is None:
        raise InfeasibleProblem("polish produced no feasible point")

    # Integer bounds reach best_x through the clip and the snap; the
    # solution holds floats whatever the types of the market's fields.
    t1, t2, t3, fee = map(float, best_x)
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
    additionally gives F*(t3) = (a - b delta M r)/(2b) + delta M h t3/4,
    and substituting it yields the quartic

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
    candidates = []
    for z in roots:
        if abs(z.imag) > 1e-7 * max(1.0, abs(z)):
            continue
        t3 = float(z.real) / scale
        if not (0.0 < t3 < p.tau):
            continue
        fee_star = interior_fee_for_t3(problem, t3)
        if not (p.f_min < fee_star < p.f_max):
            continue
        if not is_local_max(t3, fee_star):
            continue
        candidates.append((-neg_profit(0.0, 0.0, t3, fee_star), t3))
    if not candidates:
        raise RegimeViolation(
            "no admissible interior-fee maximum; a boundary regime applies")
    return max(candidates)[1]


def interior_fee_for_t3(problem: EquilibriumProblem, t3: float) -> float:
    """Fee stationarity partner of the interior-fee closed form."""
    fm = problem.fee_model
    if fm.family is not FeeFamily.LINEAR:
        raise UnsupportedSignal("interior-fee closed form requires the linear family")
    p = problem.params
    return ((fm.a - fm.b * fm.delta * p.M * p.r) / (2.0 * fm.b)
            + fm.delta * p.M * p.h * t3 / 4.0)


@dataclass(frozen=True)
class StructureReport:
    """Structural checks on an equilibrium solution.

    (a) a cycle without fast service has no lost-sales phase either,
    (b) if the realized delivery time beats the declared one, there is no
        fast service, and
    (c) the fast-service phase never exceeds r/h.

    Under the MDT signal all three are required; under NPS the perception
    driver can legitimately break (a)/(b), so only (c) is required and the
    rest are reported as findings.
    """

    no_phase2_without_phase1: bool
    no_phase1_when_t3_short: bool
    phase1_within_margin_bound: bool
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
    return StructureReport(a, b, c, required, findings)


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
    erodes it).
    """

    kind: RecoveryClass
    long_run_lambda: float | None
    long_run_profit: float | None
    initial_profit: float
    shortfall_vs_initial: float | None
    lambda_bar_predicted: float | None
    lambda_eq: float
    potential_bound_binding: bool | None
    demand_bound_ok: bool | None

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
    (settled elsewhere) or Cycles.  For the MDT signal with c2 = 1 it
    also checks the trace's analytic prediction against the long-run
    demand bound lambda_bar <= lambda_eq, with equality exactly when the
    potential market fits under 2K/(h tau^2).
    """
    p = problem.params
    trace = simulate(p, problem.fee_model, problem.resp, problem.signal_spec,
                     solution.fee, max_iters=500, tol=1e-4)

    lam_long: float | None = None
    profit_long: float | None = None
    if trace.classification.kind is LongRunKind.CYCLE2:
        kind = RecoveryClass.CYCLES
    else:
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
    if profit_long is not None and initial_profit > 0:
        shortfall = 1.0 - profit_long / initial_profit

    lam_bar = None
    binding = None
    bound_ok = None
    if problem.signal_spec.kind is SignalKind.MDT and problem.resp.c2 == 1:
        lam_bar = trace.prediction.values[0]
        c1 = potential_market(problem.fee_model, solution.fee)
        binding = c1 <= p.demand_threshold
        slack = 1e-6 * max(1.0, solution.lambda_p)
        if binding:
            bound_ok = abs(lam_bar - solution.lambda_p) <= slack
        else:
            bound_ok = lam_bar <= solution.lambda_p + slack
    return RecoveryReport(kind, lam_long, profit_long, initial_profit,
                          shortfall, lam_bar, solution.lambda_p, binding,
                          bound_ok)
