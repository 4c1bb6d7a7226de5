"""The in-house Nelder-Mead against SciPy's, bit for bit.

SciPy is a test dependency only: it is the reference the polish must
reproduce step for step, on the polishes the solver really makes and on
edge cases of the simplex (bounds, zero coordinates, ties, budgets).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning
from scipy.optimize import minimize as scipy_minimize

import womops
from womops import equilibrium, neldermead
from womops.domain import (CustomerResponse, FeeFamily, FeeModel, MDT, NPS,
                           MarketParams, SignalKind, SignalSpec)
from womops.equilibrium import (EquilibriumProblem, SearchSpec, _objective,
                                _seeds, search_cap, solve_equilibrium)
from womops.experiments import (ExperimentConfig, TableId, _table_setup,
                                build_problem)

LIN = FeeModel(FeeFamily.LINEAR, 100, 1, 5)
LOG = FeeModel(FeeFamily.LOGARITHMIC, 20, 101, 5)
WEIGHTED = SignalSpec(SignalKind.WEIGHTED,
                      ((SignalKind.MDT, 0.3), (SignalKind.NPS, 0.7)))


def problem(tau, c2, K=2000.0, r=8.0, fee_model=LIN, spec=MDT,
            f_min=10.0, f_max=100.0):
    params = MarketParams(r=r, K=K, h=4, tau=tau, lambda_r=50.0, M=30.0,
                          f_min=f_min, f_max=f_max)
    return EquilibriumProblem(params, fee_model, CustomerResponse(c2), spec)


def scipy_polish(fun, x0, bounds, **options):
    """SciPy's bounded Nelder-Mead on the same objective.

    SciPy hands the objective a float64 array, so the profit is computed
    on NumPy scalars here, as it was while the polish ran on SciPy.  Its
    iteration budget is set to the evaluation budget, as the solver set
    it then.
    """
    options = dict(options, maxiter=options["maxfev"])
    # A seed outside the box is clipped, with a warning, and a simplex whose
    # best value is inf takes inf - inf in SciPy's convergence test.
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", OptimizeWarning)
        return scipy_minimize(lambda y: fun(*y), list(x0),
                              method="Nelder-Mead", bounds=bounds,
                              options=options)


def assert_same_steps(got, want):
    assert np.asarray(got.x, dtype=float).tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert (got.nfev, got.nit, got.status, got.success) == \
        (want.nfev, want.nit, want.status, want.success)


def record_polishes(monkeypatch) -> list[tuple]:
    """(fun, x0, bounds, options, result) of every polish made."""
    calls = []

    def spy(fun, x0, bounds, **options):
        res = neldermead.minimize(fun, x0, bounds, **options)
        calls.append((fun, x0, bounds, options, res))
        return res

    monkeypatch.setattr(equilibrium, "minimize", spy)
    return calls


def assert_polishes_match_scipy(calls):
    assert calls
    for fun, x0, bounds, options, res in calls:
        assert_same_steps(res, scipy_polish(fun, x0, bounds, **options))


@pytest.fixture(scope="module")
def table_polishes():
    """The 44 T3-T6 rows' solutions, every polish they make, and each
    table's polish evaluations."""
    config = ExperimentConfig()
    solutions, calls, nfev = [], [], {}
    with pytest.MonkeyPatch.context() as mp:
        spied = record_polishes(mp)
        for table in ("T3", "T4", "T5", "T6"):
            setup = _table_setup(TableId[table])
            for row in setup.rows:
                solutions.append(solve_equilibrium(
                    build_problem(config, setup, *row), config.search))
            nfev[table] = sum(res.nfev for *_, res in spied)
            calls += spied
            spied.clear()
    return solutions, calls, nfev


#: sha256 of the 44 T3-T6 solutions' (t1, t2, t3, F, lambda_p, profit) as
#: ``float.hex``, one row per line.  The CSVs round to 2 decimals; this
#: pins every bit, so a change that moves one has to say so.
SOLUTIONS_SHA256 = "8bdd4f3312445bd3e580d15bb9c6a815fbdb3b75a57bdfcf081ced495f7f59f5"


class TestTablePolishes:
    def test_match_scipy(self, table_polishes):
        solutions, calls, _ = table_polishes
        assert (len(solutions), len(calls)) == (44, 352)
        assert_polishes_match_scipy(calls)

    def test_every_polish_converges(self, table_polishes):
        _, calls, _ = table_polishes
        assert [res.status for *_, res in calls] == [0] * len(calls)
        assert all(res.success for *_, res in calls)

    def test_evaluation_counts_are_pinned(self, table_polishes):
        _, _, nfev = table_polishes
        assert nfev == {"T3": 15068, "T4": 13092, "T5": 13719, "T6": 13284}

    def test_solutions_are_pinned_to_the_bit(self, table_polishes):
        solutions, _, _ = table_polishes
        lines = (" ".join(float.hex(v) for v in (
            sol.policy.t1, sol.policy.t2, sol.policy.t3, sol.fee,
            sol.lambda_p, sol.profit)) for sol in solutions)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == SOLUTIONS_SHA256


class TestPaths:
    def test_pinned_fee_polishes_two_coordinates(self, monkeypatch):
        calls = record_polishes(monkeypatch)
        solve_equilibrium(problem(5.0, 1, f_min=40.0, f_max=40.0),
                          SearchSpec(n_time=20))
        assert {len(c[1]) for c in calls} == {2}
        assert_polishes_match_scipy(calls)

    def test_tied_values_take_the_stable_order(self, monkeypatch):
        # Priced out at F = f_max with every cycle losing money, the
        # optimum sits on the wall T = cap.  Past the wall every s takes
        # the wall's profit at its t1, so distinct vertices reach equal
        # profits.
        tied = []
        order = neldermead._order

        def spy(sim, fsim):
            f = sorted(fsim)
            tied.append(not f[0] < f[1] < f[2])  # a tie or a NaN
            return order(sim, fsim)

        calls = record_polishes(monkeypatch)
        with monkeypatch.context() as mp:
            mp.setattr(neldermead, "_order", spy)
            sol = solve_equilibrium(problem(7.0, 1, K=4000.0))
        assert (sol.fee, sol.lambda_p) == (100.0, 0.0)
        assert sol.policy.cycle_length == pytest.approx(
            search_cap(problem(7.0, 1, K=4000.0)), abs=1e-6)
        assert tied.count(True) > 200
        assert_polishes_match_scipy(calls)

    def test_max_polish_evals_is_the_budget(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_MAX_POLISH_EVALS", 6)
        calls = record_polishes(monkeypatch)
        solve_equilibrium(problem(2.0, 1), SearchSpec(n_time=12, top_n=2))
        assert {(c[3]["maxfev"], c[4].status) for c in calls} == {(6, 1)}
        assert_polishes_match_scipy(calls)

    @pytest.mark.parametrize("pinned", [False, True])
    def test_every_cut_of_the_evaluation_budget(self, pinned):
        # Polishes cut after each of their evaluations: mid-reflection,
        # mid-expansion, mid-contraction and mid-shrink.  Unpinned, the
        # first T3 row's first polish (202 evaluations, into the kink at
        # s = tau) and the first T6 row's (128 evaluations, five shrinks,
        # 8 stable orders taken on tied or NaN values); pinned, a
        # fee pinned at 40 (88 evaluations, five shrinks).
        if pinned:
            prob = problem(5.0, 1, f_min=40.0, f_max=40.0)
            cases = [(prob, SearchSpec(n_time=20))]
        else:
            config = ExperimentConfig()
            cases = []
            for table in (TableId.T3, TableId.T6):
                setup = _table_setup(table)
                cases.append((build_problem(config, setup, *setup.rows[0]),
                              config.search))
        for prob, search in cases:
            cap = search_cap(prob)
            bounds = [(0.0, cap), (0.0, cap)]
            fun = _objective(prob)
            x0 = _seeds(prob, search)[0]
            full = neldermead.minimize(fun, x0, bounds, xatol=1e-9,
                                       fatol=1e-8, maxfev=4000)
            assert full.status == 0
            assert any(c != b for c, b in zip(full.x, x0))
            for maxfev in range(1, full.nfev + 1):
                options = dict(xatol=1e-9, fatol=1e-8, maxfev=maxfev)
                assert_same_steps(
                    neldermead.minimize(fun, x0, bounds, **options),
                    scipy_polish(fun, x0, bounds, **options))

    @pytest.mark.parametrize("maxfev", [1, 4000])
    @pytest.mark.parametrize("x0", [
        (0.0, 2.0),                 # s on its upper bound
        (-0.0, 1.0),                # -0.0 clips to the 0.0 lower bound
        (0.3, 1.99),                # a 1.05 x step past the upper bound
        (20.0, -1.0),               # outside the box in every coordinate
    ])
    def test_seeds_on_and_beyond_the_bounds(self, x0, maxfev):
        # s is boxed at tau = 2 here, where t3 = min(tau, s) stops growing.
        prob = problem(2.0, 1)
        cap = search_cap(prob)
        bounds = [(0.0, cap), (0.0, 2.0)]
        fun = _objective(prob)
        options = dict(xatol=1e-9, fatol=1e-8, maxfev=maxfev)
        assert_same_steps(neldermead.minimize(fun, x0, bounds, **options),
                          scipy_polish(fun, x0, bounds, **options))

    @pytest.mark.parametrize("maxfev", [1, 4000])
    def test_signed_zero_bounds(self, maxfev):
        # np.clip keeps a coordinate only when strictly inside, so 0.0
        # clips to a -0.0 lower bound and -0.0 to a 0.0 upper bound.
        def fun(x, y):
            return (x + 0.3) ** 2 + (y - 0.2) ** 2

        x0 = (-0.0, 0.0)
        bounds = [(-1.0, 0.0), (-0.0, 1.0)]
        options = dict(xatol=1e-9, fatol=1e-12, maxfev=maxfev)
        assert_same_steps(neldermead.minimize(fun, x0, bounds, **options),
                          scipy_polish(fun, x0, bounds, **options))

    def test_objective_blind_to_coordinates(self):
        # Only the first coordinate matters, so vertices tie from the
        # initial simplex on; cut the budget after each of the first 60
        # evaluations, and run to convergence (224 evaluations).
        def fun(a, b):
            return abs(a - 0.3)

        x0 = (1.0, 2.0)
        bounds = [(0.0, 2.0)] * 2
        for maxfev in [*range(1, 61), 4000]:
            options = dict(xatol=1e-9, fatol=1e-8, maxfev=maxfev)
            assert_same_steps(neldermead.minimize(fun, x0, bounds, **options),
                              scipy_polish(fun, x0, bounds, **options))

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_other_dimensions_are_rejected(self, n):
        with pytest.raises(ValueError, match="two coordinates"):
            neldermead.minimize(lambda *x: 0.0, (1.0,) * n, [(0.0, 2.0)] * n,
                                xatol=1e-9, fatol=1e-8, maxfev=10)

    def test_overflowing_response(self, monkeypatch):
        # Weights may sum to 1 + 1e-9.  Unless the weighted theta is divided
        # by that sum it can exceed 1, and theta ** c2 then overflows and
        # hides the best cycle, (0, 0, tau, f_min).
        spec = SignalSpec(SignalKind.WEIGHTED, ((SignalKind.MDT, 0.5000000005),
                                                (SignalKind.NPS, 0.5)))
        prob = problem(2.0, 1e13, spec=spec)
        assert _objective(prob)(0.0, 2.0) == -1230.0
        calls = record_polishes(monkeypatch)
        sol = solve_equilibrium(prob, SearchSpec(n_time=12, top_n=3))
        assert (sol.policy.t1, sol.policy.t2, sol.policy.t3, sol.fee) == \
            (0.0, 0.0, 2.0, 10.0)
        assert sol.profit == pytest.approx(1230.0, rel=1e-12)
        assert_polishes_match_scipy(calls)

    def test_seeded_random_problems(self, monkeypatch):
        calls = record_polishes(monkeypatch)
        rng = np.random.default_rng(20261018)
        for spec in (MDT, NPS, WEIGHTED):
            for fee_model in (LIN, LOG):
                for _ in range(2):
                    prob = problem(
                        tau=float(rng.uniform(0.5, 7.0)),
                        c2=float(rng.choice([0.0, 0.2, 1.0, 1.7, 3.0])),
                        K=float(rng.uniform(500.0, 4000.0)),
                        r=float(rng.uniform(4.0, 48.0)),
                        fee_model=fee_model, spec=spec)
                    solve_equilibrium(prob, SearchSpec(n_time=12, top_n=3))
        assert len(calls) == 36
        assert_polishes_match_scipy(calls)


@st.composite
def boxed_searches(draw):
    """A 2-D objective with plateaus and an ``inf`` region, so that vertices
    tie; a box; a seed inside, on or outside the box; and a budget."""
    lows = [draw(st.floats(-2.0, 1.0)) for _ in range(2)]
    bounds = [(low, low + draw(st.floats(0.1, 3.0))) for low in lows]
    x0 = tuple(draw(st.one_of(st.floats(low, high),
                              st.sampled_from([low, high, 0.0, -0.0]),
                              st.floats(low - 2.0, high + 2.0)))
               for low, high in bounds)
    center = [draw(st.floats(low - 0.5, high + 0.5)) for low, high in bounds]
    weights = [draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for _ in range(2)]
    step = draw(st.sampled_from([0.0, 0.01, 0.1, 1.0]))
    wall = draw(st.sampled_from([None, 0, 1]))
    low, high = bounds[0 if wall is None else wall]
    edge = draw(st.floats(low, high))

    def fun(*x):
        if wall is not None and x[wall] > edge:
            return math.inf
        value = 0.0
        for v, c, w in zip(x, center, weights):
            value += w * (v - c) * (v - c)
        return math.floor(value / step) * step if step else value

    options = dict(xatol=draw(st.sampled_from([1e-9, 1e-6, 1e-3])),
                   fatol=draw(st.sampled_from([1e-8, 1e-4, 1e-2])),
                   maxfev=draw(st.integers(1, 400)))
    return fun, x0, bounds, options


@settings(max_examples=250, deadline=None)
@given(boxed_searches())
def test_random_boxed_searches_match_scipy(search):
    fun, x0, bounds, options = search
    assert_same_steps(neldermead.minimize(fun, x0, bounds, **options),
                      scipy_polish(fun, x0, bounds, **options))


#: Every triple of both zeros, ±1, both infinities, NaN and a tiny
#: positive value, so ties, signed-zero ties and NaN all appear.
_PATTERNS = list(itertools.product(
    [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e-300], repeat=3))


def test_order_is_numpys_on_every_pattern():
    # SciPy orders the simplex with np.argsort; the stable NaN-last sort
    # must give its permutation on all 512 triples.
    for values in _PATTERNS:
        sim, fsim = neldermead._order([0, 1, 2], list(values))
        want = np.argsort(np.array(values)).tolist()
        assert sim == want, values
        assert np.array(fsim).tobytes() == np.array(values)[want].tobytes()


def test_final_value_is_numpys_min_on_every_pattern():
    # With a budget of three evaluations the search stops after SciPy's
    # two sorts of the initial simplex and reports np.min of the sorted
    # values: NaN when there is one, and the later of two equal zeros.
    x0, bounds = (1.0, 1.0), [(0.0, 2.0), (0.0, 2.0)]
    vertices = [(1.0, 1.0), (1.05, 1.0), (1.0, 1.05)]
    for values in _PATTERNS:
        res = neldermead.minimize(lambda *x: values[vertices.index(x)], x0,
                                  bounds, xatol=1e-9, fatol=1e-8, maxfev=3)
        first = np.argsort(np.array(values))
        second = np.argsort(np.array(values)[first])
        f = np.array(values)[first][second]
        assert np.float64(res.fun).tobytes() == np.min(f).tobytes(), values
        assert res.x == vertices[first[second[0]]], values


def test_import_leaves_scipy_out():
    src = Path(womops.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, womops; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
