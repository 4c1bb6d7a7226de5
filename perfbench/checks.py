"""Correctness checks for the benchmark's operations.

Every check compares a program output with something computed apart from
the code path that produced it: the published reference values, an
independent statement of the paper's formulas, a closed form, or a
property the method must have.  A check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

from womops import dynamics, equilibrium
from womops.domain import FeeFamily, SignalKind
from womops.dynamics import LongRunKind
from womops.reference import ROW_TOLERANCES, TRACE_TOLERANCES

#: Limits and fixed points must hold to this many multiples of the
#: simulation tolerance (a contraction with factor rho stops within
#: tol * rho / (1 - rho) of its limit; rho <= 0.9 in every seeded draw).
LIMIT_TOL_FACTOR = 100.0
#: A two-point cycle must be separated by more than this many tolerances,
#: the same separation the classifier itself promises.
CYCLE_SEPARATION_FACTOR = 10.0
#: One ``step`` may move a reported limit or cycle point this many
#: tolerances off its partner (a settled loop moves it by under one).
STEP_TOL_FACTOR = 10.0
#: Agreement of the numeric t3 with the closed-form cubic root.
CLOSED_FORM_T3_TOL = 1e-6
#: Stationarity residual |lambda_p - R(theta)| relative to lambda_p.
RESIDUAL_TOL = 1e-6
#: Two-decimal CSV values against the solved floats.
CSV_TOL = 0.005 + 1e-9


def profit_rate(params, t1: float, t2: float, t3: float, lam: float) -> float:
    """Average profit rate of one cycle at a fixed premium rate (paper eq.)."""
    T = t1 + t2 + t3
    return (params.r * lam
            + params.r * params.lambda_r * (t1 + t3) / T
            - params.h * lam * T / 2.0
            - params.h * params.lambda_r * t1 * t1 / (2.0 * T)
            - params.K / T)


def members(fee_model, fee: float) -> float:
    """N(F) for the linear (a - bF) and logarithmic (a ln(b - F)) families."""
    if fee_model.family is FeeFamily.LINEAR:
        return max(fee_model.a - fee_model.b * fee, 0.0)
    return fee_model.a * math.log(max(fee_model.b - fee, 1.0))


def mdt_long_run(params, fee_model, c2: float, fee: float):
    """Long-run (kind, values) of the delivery-time feedback loop.

    With c1 = N(F) delta and bound = 2K/(h tau^2): the potential market is
    reached when c1 <= bound; otherwise demand cycles between c1 and
    c1 w^(c2/2) for c2 >= 2 and converges to c1 w^(c2/(c2+2)) for c2 < 2,
    where w = bound / c1.
    """
    c1 = members(fee_model, fee) * fee_model.delta
    bound = 2.0 * params.K / (params.h * params.tau ** 2)
    if c1 <= bound or c2 == 0:
        return LongRunKind.CONVERGED_TO_POTENTIAL, (c1,)
    w = bound / c1
    if c2 >= 2:
        return LongRunKind.CYCLE2, (c1, c1 * w ** (c2 / 2.0))
    return LongRunKind.CONVERGED_INTERIOR, (c1 * w ** (c2 / (c2 + 2.0)),)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# --------------------------------------------------------------- oracle


def oracle_gap_bound(params, lam: float, policy, step: float) -> float:
    """Largest profit gap the step-``step`` grid may leave to the optimum.

    The grid holds a point within one step of the optimum in t1, t3 and
    T = t1 + t2 + t3.  Over that neighbourhood (T >= T* - step) the
    partial derivatives of the profit rate are bounded by
    |d/dT| <= r lr/T + h lp/2 + h lr/2 + K/T^2, |d/dt1| <= r lr/T + h lr
    and |d/dt3| <= r lr/T, so the gap is at most their sum times step.
    """
    T = max(policy.cycle_length - step, step)
    r, h, K, lr = params.r, params.h, params.K, params.lambda_r
    lipschitz = 3.0 * r * lr / T + h * lam / 2.0 + 1.5 * h * lr + K / T ** 2
    return lipschitz * step


def check_oracle(params, lam: float, step: float, closed, grid) -> list[str]:
    problems = []
    pol = closed.policy
    if pol.t1 == 0 and pol.t2 != 0:
        problems.append(f"closed form has t2={pol.t2} without fast service")
    if pol.t3 < params.tau and pol.t1 != 0:
        problems.append(f"closed form has t1={pol.t1} with t3 < tau")
    if not closed.kkt_residual <= 1e-6:
        problems.append(f"closed-form KKT residual {closed.kkt_residual}")
    for label, sol in (("closed form", closed), ("grid", grid)):
        p = sol.policy
        want = profit_rate(params, p.t1, p.t2, p.t3, lam)
        if not _close(sol.profit, want, 1e-9 * max(1.0, abs(want))):
            problems.append(f"{label} reports profit {sol.profit} for a "
                            f"policy worth {want}")
    if grid.profit > closed.profit + 1e-9:
        problems.append(f"grid profit {grid.profit} beats the closed form "
                        f"{closed.profit}")
    gap = closed.profit - grid.profit
    bound = oracle_gap_bound(params, lam, pol, step)
    if gap > bound:
        problems.append(f"closed form {gap:.6g} above the grid, more than the "
                        f"O(step) bound {bound:.6g}")
    return problems


# ------------------------------------------------------------- feedback


def check_feedback(draw, trace, prediction) -> list[str]:
    """Classification against the analytic prediction and against ``step``."""
    problems = []
    cls = trace.classification
    tol = cls.tol
    if draw.spec.kind is SignalKind.MDT:
        kind, values = mdt_long_run(draw.params, draw.fee_model,
                                    draw.resp.c2, draw.fee)
        if prediction.kind is not kind or not all(
                _close(a, b, 1e-9 * max(1.0, b))
                for a, b in zip(prediction.values, values)):
            problems.append(f"predict_long_run gives {prediction.kind.value} "
                            f"{prediction.values}, formula {kind.value} {values}")
        if cls.kind is not prediction.kind:
            problems.append(f"classified {cls.kind.value} {cls.values}, "
                            f"predicted {prediction.kind.value} "
                            f"{prediction.values}")
        elif not all(_close(a, b, LIMIT_TOL_FACTOR * tol)
                     for a, b in zip(cls.values, prediction.values)):
            problems.append(f"classified values {cls.values} vs predicted "
                            f"{prediction.values} (tol {LIMIT_TOL_FACTOR * tol})")

    def next_lambda(lam: float) -> float:
        return dynamics.step(draw.params, draw.fee_model, draw.resp, draw.spec,
                             draw.fee, lam)[1]

    if cls.kind is LongRunKind.CYCLE2:
        high, low = cls.values
        if not high - low > CYCLE_SEPARATION_FACTOR * tol:
            problems.append(f"degenerate two-point cycle ({high}, {low}) at "
                            f"tol {tol}")
        for a, b in ((high, low), (low, high)):
            if not _close(next_lambda(a), b, STEP_TOL_FACTOR * tol):
                problems.append(f"cycle point {a} does not map to {b}")
    elif cls.kind in (LongRunKind.CONVERGED_INTERIOR,
                      LongRunKind.CONVERGED_TO_POTENTIAL):
        limit = cls.values[0]
        moved = next_lambda(limit) - limit
        if not abs(moved) <= STEP_TOL_FACTOR * tol:
            problems.append(f"limit {limit} moves by {moved} in one step")
    return problems


# --------------------------------------------------------------- tables


def check_row(reference: dict, row, problem, solution) -> list[str]:
    """One solved table row against the published values and the method."""
    problems = []
    key = (row.tau, row.c2, row.K, row.r)
    t1, t2, t3, fee, lam, profit, label = reference[key]
    tol = ROW_TOLERANCES
    for name, got, want, t in (("t1", row.t1, t1, tol["t"]),
                               ("t2", row.t2, t2, tol["t"]),
                               ("t3", row.t3, t3, tol["t"]),
                               ("F", row.F, fee, tol["F"]),
                               ("lambda_p", row.lambda_p, lam, tol["lambda_p"]),
                               ("profit", row.profit, profit, tol["profit"])):
        if not _close(got, want, t):
            problems.append(f"{name} {got:.4f} vs published {want:.2f} "
                            f"(tol {t})")
    if row.no_wom_decision != label:
        problems.append(f"label {row.no_wom_decision} vs published {label}")
    residual = equilibrium.equilibrium_residual(problem, solution)
    if not residual <= RESIDUAL_TOL * max(1.0, solution.lambda_p):
        problems.append(f"stationarity residual {residual}")
    structure = equilibrium.check_structure(problem, solution)
    if not structure.ok:
        problems.append(f"structure violated: {structure.findings}")
    p = problem.params
    if (problem.signal_spec.kind is SignalKind.MDT and problem.resp.c2 == 1
            and solution.policy.t3 < p.tau - 1e-6):
        on_bound = min(abs(solution.fee - p.f_min), abs(solution.fee - p.f_max))
        regime = (equilibrium.FeeRegime.BOUNDARY if on_bound <= 1e-6
                  else equilibrium.FeeRegime.INTERIOR)
        want_t3 = equilibrium.closed_form_t3(problem, regime, fee=solution.fee)
        if not _close(solution.policy.t3, want_t3, CLOSED_FORM_T3_TOL):
            problems.append(f"t3 {solution.policy.t3} vs closed form {want_t3}")
    return problems


def check_trace(reference: dict, name: str, trace) -> list[str]:
    """A reproduced feedback trace against the published iterations."""
    problems = []
    tol = TRACE_TOLERANCES
    n = len(reference["lambda_p"])
    if len(trace.points) != n:
        problems.append(f"{len(trace.points)} iterations, published {n}")
    for k, pt in enumerate(trace.points[:n]):
        for field, got, t in (("lambda_p", pt.lambda_p, tol["lambda_p"]),
                              ("t1", pt.policy.t1, tol["t1"]),
                              ("t3", pt.policy.t3, tol["t3"])):
            if not _close(got, reference[field][k], t):
                problems.append(f"iteration {k}: {field} {got:.4f} vs "
                                f"published {reference[field][k]:.2f}")
    cls = trace.classification
    cyclic = len(set(reference["lambda_p"])) == 2
    if cyclic and not (cls.kind is LongRunKind.CYCLE2 and all(
            _close(a, b, tol["lambda_p"]) for a, b in
            zip(cls.values, sorted(set(reference["lambda_p"]), reverse=True)))):
        problems.append(f"{name}: published two-point cycle, classified "
                        f"{cls.kind.value} {cls.values}")
    if not cyclic and cls.kind is LongRunKind.CYCLE2:
        problems.append(f"{name}: converging trace classified as a cycle")
    return problems


def _csv_close(text: str, value: float) -> bool:
    return _close(float(text), value, CSV_TOL)


def check_table_files(csv_path: str, manifest_path: str, name: str, rows,
                      load_rows) -> list[str]:
    """Reloaded CSV and manifest of one persisted table against its rows."""
    problems = []
    loaded = load_rows(csv_path)
    if len(loaded) != len(rows):
        problems.append(f"{name}.csv holds {len(loaded)} rows, solved "
                        f"{len(rows)}")
    for got, row in zip(loaded, rows):
        keys_ok = all(float(got[k]) == getattr(row, k)
                      for k in ("tau", "c2", "K", "r", "M"))
        text_ok = (got["signal"] == row.signal
                   and got["fee_family"] == row.fee_family
                   and got["no_wom_decision"] == row.no_wom_decision)
        nums_ok = all(_csv_close(got[k], getattr(row, k))
                      for k in ("t1", "t2", "t3", "F", "lambda_p", "profit"))
        if not (keys_ok and text_ok and nums_ok):
            problems.append(f"{name}.csv row {dict(got)} does not match {row}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("table") != name:
        problems.append(f"manifest names table {manifest.get('table')!r}")
    described = [(m["tau"], m["c2"], m["K"], m["r"], m["branch"])
                 for m in manifest.get("rows", [])]
    solved = [(r.tau, r.c2, r.K, r.r, r.branch) for r in rows]
    if described != solved:
        problems.append(f"{name} manifest rows differ from the solved rows")
    recorded = manifest.get("config", {}).get("signal_kind")
    ran = sorted({r.signal for r in rows})
    if ran != [recorded]:
        problems.append(f"{name} manifest records signal_kind {recorded!r} "
                        f"but its rows ran {ran}")
    return problems


def check_trace_files(csv_path: str, manifest_path: str, name: str, trace,
                      load_rows) -> list[str]:
    """Reloaded CSV and manifest of one persisted trace against the trace."""
    problems = []
    loaded = load_rows(csv_path)
    if len(loaded) != len(trace.points):
        problems.append(f"{name}.csv holds {len(loaded)} iterations, traced "
                        f"{len(trace.points)}")
    for got, pt in zip(loaded, trace.points):
        pol = pt.policy
        if not (int(got["iter"]) == pt.k
                and all(_csv_close(got[k], v) for k, v in (
                    ("lambda_p", pt.lambda_p), ("t1", pol.t1), ("t2", pol.t2),
                    ("t3", pol.t3), ("profit", pt.profit)))):
            problems.append(f"{name}.csv iteration {dict(got)} does not "
                            f"match {pt}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    cls = trace.classification
    recorded = manifest.get("classification", {})
    if (recorded.get("kind") != cls.kind.value
            or recorded.get("values") != list(cls.values)):
        problems.append(f"{name} manifest classification {recorded} vs "
                        f"{cls.kind.value} {cls.values}")
    if manifest.get("config", {}).get("signal_kind") != SignalKind.MDT.value:
        problems.append(f"{name} manifest records signal_kind "
                        f"{manifest.get('config', {}).get('signal_kind')!r} "
                        "for an MDT trace")
    return problems
