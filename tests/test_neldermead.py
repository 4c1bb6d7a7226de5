"""The in-house Nelder-Mead against SciPy's, bit for bit.

SciPy is a test dependency only: it is the reference the polish must
reproduce step for step, on the polishes the solver really makes and on
edge cases of the simplex (bounds, zero coordinates, ties, budgets).
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
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


def scipy_polish(fun, x0, bounds, args=(), **options):
    """SciPy's bounded Nelder-Mead on the same objective.

    SciPy hands the objective a float64 array, so the profit is computed
    on NumPy scalars here, as it was while the polish ran on SciPy.  Its
    iteration budget is set to the evaluation budget, as the solver set
    it then.
    """
    options = dict(options, maxiter=options["maxfev"])
    with warnings.catch_warnings():
        # A seed outside the box is clipped, with a warning.
        warnings.simplefilter("ignore", OptimizeWarning)
        return scipy_minimize(lambda y, *a: fun(*y, *a), list(x0),
                              args=args, method="Nelder-Mead", bounds=bounds,
                              options=options)


def assert_same_steps(got, want):
    assert np.asarray(got.x, dtype=float).tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert (got.nfev, got.nit, got.status, got.success) == \
        (want.nfev, want.nit, want.status, want.success)


def record_polishes(monkeypatch) -> list[tuple]:
    """(fun, x0, bounds, args, options, result) of every polish made."""
    calls = []

    def spy(fun, x0, bounds, args=(), **options):
        res = neldermead.minimize(fun, x0, bounds, args, **options)
        calls.append((fun, x0, bounds, args, options, res))
        return res

    monkeypatch.setattr(equilibrium, "minimize", spy)
    return calls


def assert_polishes_match_scipy(calls):
    assert calls
    for fun, x0, bounds, args, options, res in calls:
        assert_same_steps(res, scipy_polish(fun, x0, bounds, args, **options))


@pytest.fixture(scope="module")
def table_polishes():
    """Every polish the 44 T3-T6 rows make, with the rows' count."""
    config = ExperimentConfig()
    rows = 0
    with pytest.MonkeyPatch.context() as mp:
        calls = record_polishes(mp)
        for table in ("T3", "T4", "T5", "T6"):
            setup = _table_setup(TableId[table])
            for row in setup.rows:
                solve_equilibrium(build_problem(config, setup, *row),
                                  config.search)
                rows += 1
    return rows, calls


class TestTablePolishes:
    def test_match_scipy(self, table_polishes):
        rows, calls = table_polishes
        assert (rows, len(calls)) == (44, 352)
        assert_polishes_match_scipy(calls)

    def test_every_polish_converges(self, table_polishes):
        _, calls = table_polishes
        assert [res.status for *_, res in calls] == [0] * len(calls)
        assert all(res.success for *_, res in calls)


class TestPaths:
    def test_pinned_fee_polishes_three_coordinates(self, monkeypatch):
        calls = record_polishes(monkeypatch)
        solve_equilibrium(problem(5.0, 1, f_min=40.0, f_max=40.0),
                          SearchSpec(n_time=20))
        assert {(len(c[1]), c[3]) for c in calls} == {(3, (40.0,))}
        assert_polishes_match_scipy(calls)

    def test_tied_values_are_ordered_by_numpy(self, monkeypatch):
        # Priced out at F = f_max, the profit does not depend on the fee,
        # so vertices that differ only in F tie.
        argsorts = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            argsorts.append(len(a))
            return argsort(a, *args, **kwargs)

        calls = record_polishes(monkeypatch)
        with monkeypatch.context() as mp:
            mp.setattr(neldermead.np, "argsort", spy)
            sol = solve_equilibrium(problem(5.0, 3))
        assert (sol.fee, sol.lambda_p) == (100.0, 0.0)
        assert argsorts.count(5) > 100
        assert_polishes_match_scipy(calls)

    def test_max_polish_evals_is_the_budget(self, monkeypatch):
        calls = record_polishes(monkeypatch)
        solve_equilibrium(problem(2.0, 1), SearchSpec(
            n_time=12, n_fee=6, top_n=2, max_polish_evals=6))
        assert {(c[4]["maxfev"], c[5].status) for c in calls} == {(6, 1)}
        assert_polishes_match_scipy(calls)

    @pytest.mark.parametrize("pinned", [False, True])
    def test_every_cut_of_the_evaluation_budget(self, pinned):
        # One polish cut after each of its evaluations: mid-reflection,
        # mid-expansion, mid-contraction and mid-shrink.  The 4-D one is
        # a T3 polish (216 evaluations, five shrinks); the 3-D one has
        # the fee pinned and passed as an argument.
        if pinned:
            prob = problem(5.0, 1, f_min=40.0, f_max=40.0)
            search = SearchSpec(n_time=20)
        else:
            config = ExperimentConfig()
            setup = _table_setup(TableId.T3)
            prob = build_problem(config, setup, *setup.rows[0])
            search = config.search
        cap = search_cap(prob)
        p = prob.params
        bounds = [(0.0, cap), (0.0, cap), (0.0, p.tau), (p.f_min, p.f_max)]
        fun = _objective(prob)
        x0 = _seeds(prob, search)[0]
        args = ()
        if pinned:
            x0, bounds, args = x0[:3], bounds[:3], (p.f_min,)
        full = neldermead.minimize(fun, x0, bounds, args, xatol=1e-9,
                                   fatol=1e-8, maxfev=4000)
        assert full.status == 0
        assert any(c != b for c, b in zip(full.x, x0))
        for maxfev in range(1, full.nfev + 1):
            options = dict(xatol=1e-9, fatol=1e-8, maxfev=maxfev)
            assert_same_steps(
                neldermead.minimize(fun, x0, bounds, args, **options),
                scipy_polish(fun, x0, bounds, args, **options))

    @pytest.mark.parametrize("maxfev", [1, 4000])
    @pytest.mark.parametrize("x0", [
        (0.0, 0.0, 2.0, 100.0),     # t3 and F on their upper bounds
        (0.0, -0.0, 1.0, 10.0),     # -0.0 clips to the 0.0 lower bound
        (0.5, 0.3, 1.99, 99.9),     # 1.05 x steps past the upper bounds
        (7.0, -1.0, 3.0, 5.0),      # outside the box in every coordinate
    ])
    def test_seeds_on_and_beyond_the_bounds(self, x0, maxfev):
        prob = problem(2.0, 1)
        cap = search_cap(prob)
        bounds = [(0.0, cap), (0.0, cap), (0.0, 2.0), (10.0, 100.0)]
        fun = _objective(prob)
        options = dict(xatol=1e-9, fatol=1e-8, maxfev=maxfev)
        assert_same_steps(neldermead.minimize(fun, x0, bounds, **options),
                          scipy_polish(fun, x0, bounds, **options))

    @pytest.mark.parametrize("maxfev", [1, 4000])
    def test_signed_zero_bounds(self, maxfev):
        # np.clip keeps a coordinate only when strictly inside, so 0.0
        # clips to a -0.0 lower bound and -0.0 to a 0.0 upper bound.
        def fun(x, y, z):
            return (x + 0.3) ** 2 + (y - 0.2) ** 2 + z * z

        x0 = (-0.0, 0.0, -0.0)
        bounds = [(-1.0, 0.0), (-0.0, 1.0), (-1.0, 1.0)]
        options = dict(xatol=1e-9, fatol=1e-12, maxfev=maxfev)
        assert_same_steps(neldermead.minimize(fun, x0, bounds, **options),
                          scipy_polish(fun, x0, bounds, **options))

    def test_objective_blind_to_coordinates(self):
        # Only the first coordinate matters, so vertices tie from the
        # initial simplex on; cut the budget after each of the first 60
        # evaluations, and run to convergence (307 evaluations).
        def fun(a, b, c, d):
            return abs(a - 0.3)

        x0 = (1.0, 1.0, 0.0, 2.0)
        bounds = [(0.0, 2.0)] * 4
        for maxfev in [*range(1, 61), 4000]:
            options = dict(xatol=1e-9, fatol=1e-8, maxfev=maxfev)
            assert_same_steps(neldermead.minimize(fun, x0, bounds, **options),
                              scipy_polish(fun, x0, bounds, **options))

    def test_overflowing_response(self, monkeypatch):
        # Weights may sum to 1 + 1e-9.  Unless the weighted theta is divided
        # by that sum it can exceed 1, and theta ** c2 then overflows and
        # hides the best cycle, (0, 0, tau, f_min).
        spec = SignalSpec(SignalKind.WEIGHTED, ((SignalKind.MDT, 0.5000000005),
                                                (SignalKind.NPS, 0.5)))
        prob = problem(2.0, 1e13, spec=spec)
        assert _objective(prob)(0.0, 0.0, 2.0, 10.0) == -1230.0
        calls = record_polishes(monkeypatch)
        sol = solve_equilibrium(prob, SearchSpec(n_time=12, n_fee=6, top_n=3))
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
                    solve_equilibrium(prob, SearchSpec(n_time=12, n_fee=6,
                                                       top_n=3))
        assert len(calls) == 36
        assert_polishes_match_scipy(calls)


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
