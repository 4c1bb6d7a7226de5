"""Benchmark harness: table regeneration, traces, and persistence.

Reproduces the reference benchmarks T3-T8 (see :mod:`womops.reference`)
from an :class:`ExperimentConfig`, runs the fee-only recoverability
experiment for each solved row, compares stationary optima against the
long-run average of the feedback dynamics, and persists results as CSV
plus a JSON manifest.  Outputs are byte-reproducible: same config, same
bytes.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import os
from dataclasses import asdict, dataclass, field

from . import __version__ as _version
from .domain import (CustomerResponse, FeeFamily, FeeModel, MarketParams,
                     SignalKind, SignalSpec, profit_rate_with_fees)
from .dynamics import DynamicsTrace, LongRunKind, simulate, trace_rows
from .equilibrium import (EquilibriumProblem, SearchSpec, recoverability,
                          solve_equilibrium)
from .myopic import solve_policy
from .reference import TABLE_ROWS, TRACES

#: Membership duration M of each label a :class:`TableSetup` may name.
MEMBERSHIP_DURATIONS = {"monthly": 30.0}

#: The market every benchmark table and trace shares: holding cost h,
#: regular demand lambda_r, each fee family's (a, b) and the fee bounds.
BENCHMARK_MARKET = {"h": 4.0, "lambda_r": 50.0,
                    "linear_coeffs": (100.0, 1.0), "log_coeffs": (20.0, 101.0),
                    "f_min": 10.0, "f_max": 100.0}

#: The :data:`BENCHMARK_MARKET` key of each fee family's (a, b).
_COEFFS = {FeeFamily.LINEAR: "linear_coeffs",
           FeeFamily.LOGARITHMIC: "log_coeffs"}

CSV_HEADER = ("tau", "c2", "K", "r", "M", "signal", "fee_family",
              "t1", "t2", "t3", "F", "lambda_p", "profit", "no_wom_decision")


class TableId(enum.Enum):
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    T6 = "T6"


class TraceId(enum.Enum):
    T7 = "T7"
    T8 = "T8"


@dataclass(frozen=True)
class ExperimentConfig:
    """Run settings for the benchmark harness.

    The market constants are :data:`BENCHMARK_MARKET`.  Each table's
    (tau, c2, K, r) rows come from :mod:`womops.reference`, and its
    signal, fee family, delta and membership from :func:`_table_setup`.
    ``signal_kind`` is what a manifest records for a table without rows.
    """

    signal_kind: SignalKind = SignalKind.MDT
    out_dir: str = "womops-out"
    search: SearchSpec = field(default_factory=SearchSpec)


@dataclass(frozen=True)
class ResultRow:
    """One solved benchmark row, mirroring the reference table layout."""

    tau: float
    c2: float
    K: float
    r: float
    M: float
    signal: str
    fee_family: str
    t1: float
    t2: float
    t3: float
    F: float
    lambda_p: float
    profit: float
    no_wom_decision: str
    branch: str  # manifest only; not part of the CSV schema

    def csv_values(self) -> tuple[str, ...]:
        return (_num(self.tau), _num(self.c2), _num(self.K), _num(self.r),
                _num(self.M), self.signal, self.fee_family,
                f"{self.t1:.2f}", f"{self.t2:.2f}", f"{self.t3:.2f}",
                f"{self.F:.2f}", f"{self.lambda_p:.2f}", f"{self.profit:.2f}",
                self.no_wom_decision)


def _num(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True)
class TableSetup:
    """Fixed context plus the (tau, c2, K, r) row keys of one benchmark table."""

    signal: SignalKind
    fee_family: FeeFamily
    delta: float
    membership: str
    rows: tuple[tuple[float, float, float, float], ...]


def _table_setup(table: TableId) -> TableSetup:
    rows = tuple(sorted(TABLE_ROWS[table.value]))
    if table in (TableId.T3, TableId.T4):
        sig = SignalKind.MDT
    else:
        sig = SignalKind.NPS
    family = FeeFamily.LINEAR if table in (TableId.T3, TableId.T5) else FeeFamily.LOGARITHMIC
    return TableSetup(sig, family, 5.0, "monthly", rows)


def build_problem(config: ExperimentConfig, setup: TableSetup, tau: float,
                  c2: float, K: float, r: float) -> EquilibriumProblem:
    """One row's problem in the :data:`BENCHMARK_MARKET` (not ``config``)."""
    m = BENCHMARK_MARKET
    a, b = m[_COEFFS[setup.fee_family]]
    params = MarketParams(r=r, K=K, h=m["h"], tau=tau,
                          lambda_r=m["lambda_r"],
                          M=MEMBERSHIP_DURATIONS[setup.membership],
                          f_min=m["f_min"], f_max=m["f_max"])
    fee_model = FeeModel(setup.fee_family, a, b, setup.delta)
    return EquilibriumProblem(params, fee_model, CustomerResponse(c2),
                              SignalSpec(setup.signal))


def run_table(config: ExperimentConfig, table: TableId) -> list[ResultRow]:
    """Solve every row of one benchmark table and label its recoverability."""
    setup = _table_setup(table)

    def solve_row(key: tuple[float, float, float, float]) -> ResultRow:
        tau, c2, K, r = key
        problem = build_problem(config, setup, tau, c2, K, r)
        sol = solve_equilibrium(problem, config.search)
        rec = recoverability(problem, sol)
        return ResultRow(
            tau=tau, c2=c2, K=K, r=r, M=problem.params.M,
            signal=setup.signal.value, fee_family=setup.fee_family.value,
            t1=sol.policy.t1, t2=sol.policy.t2, t3=sol.policy.t3,
            F=sol.fee, lambda_p=sol.lambda_p, profit=sol.profit,
            no_wom_decision=rec.label, branch=sol.branch.value)

    return [solve_row(key) for key in setup.rows]


#: Trace setups: (tau, c2, fee) under the market and signal of this table.
_TRACE_TABLE = TableId.T3
_TRACE_SETUPS = {TraceId.T7: (2.0, 1.0, 10.0), TraceId.T8: (2.0, 3.0, 10.0)}


def run_trace(config: ExperimentConfig, trace: TraceId) -> DynamicsTrace:
    """Reproduce one reference feedback trace, as long as the reference.

    ``min_iters`` pins the trace length so the emitted series covers every
    reference iteration even when a cycle is detected after two steps.
    """
    tau, c2, fee = _TRACE_SETUPS[trace]
    iters = len(TRACES[trace.value]["lambda_p"]) - 1
    problem = build_problem(config, _table_setup(_TRACE_TABLE), tau, c2,
                            2000.0, 8.0)
    return simulate(problem.params, problem.fee_model, problem.resp,
                    problem.signal_spec, fee,
                    max_iters=iters, tol=1e-2, min_iters=iters)


@dataclass(frozen=True)
class CyclePhase:
    lambda_p: float
    t1: float
    t2: float
    t3: float
    cycle_length: float
    profit: float


@dataclass(frozen=True)
class ComparisonReport:
    """Stationary optimum vs the long-run average of the feedback dynamics.

    ``long_run_average_profit`` is the time-weighted mean over one detected
    cycle (weights = each phase's own cycle length), or the limit profit
    when the dynamics converge instead (``cycle_detected`` False).
    """

    stationary_profit: float
    long_run_average_profit: float
    margin: float
    cycle_detected: bool
    phases: tuple[CyclePhase, ...]

    @property
    def cyclic_wins(self) -> bool:
        return self.margin > 0


def cyclic_vs_stationary(problem: EquilibriumProblem,
                         search: SearchSpec = SearchSpec()) -> ComparisonReport:
    """Compare the stationary optimum with running the feedback loop at its fee."""
    sol = solve_equilibrium(problem, search)
    p = problem.params
    trace = simulate(p, problem.fee_model, problem.resp, problem.signal_spec,
                     sol.fee, max_iters=1000, tol=1e-6)

    def phase(lam: float) -> CyclePhase:
        pol = solve_policy(p, lam).policy
        profit = profit_rate_with_fees(p, problem.fee_model, pol, sol.fee, lam)
        return CyclePhase(lam, pol.t1, pol.t2, pol.t3, pol.cycle_length, profit)

    phases = tuple(phase(lam) for lam in trace.settled)
    detected = trace.classification.kind is LongRunKind.CYCLE2
    if detected:
        total_time = sum(ph.cycle_length for ph in phases)
        avg = sum(ph.profit * ph.cycle_length for ph in phases) / total_time
    else:
        avg = phases[0].profit
    return ComparisonReport(sol.profit, avg, avg - sol.profit, detected, phases)


def _market_settings(families) -> dict:
    """:data:`BENCHMARK_MARKET` with the coefficients of the fee families
    in ``families`` only: a run reads no other family's."""
    unread = {_COEFFS[family] for family in FeeFamily
              if family not in families}
    return {k: v for k, v in BENCHMARK_MARKET.items() if k not in unread}


def _write(out_dir: str, name: str, csv_text: str, settings: dict,
           **extra) -> tuple[str, str]:
    """Write ``{name}.csv`` and ``{name}_manifest.json``; returns both paths.

    Output is byte-deterministic: fixed field order, LF newlines, sorted
    manifest keys, and no timing or host information.  ``settings`` is the
    manifest's ``config``, the settings the run read, and ``extra`` holds
    the manifest keys beyond the shared envelope.
    """
    # No out_dir: reruns stay byte-identical wherever they are written.
    manifest = {"schema": 1, "tool": {"name": "womops", "version": _version},
                "table": name, "config": settings, **extra}
    texts = (csv_text, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    os.makedirs(out_dir, exist_ok=True)
    paths = (os.path.join(out_dir, f"{name}.csv"),
             os.path.join(out_dir, f"{name}_manifest.json"))
    for path, text in zip(paths, texts):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return paths


def persist(rows: list[ResultRow], out_dir: str, name: str,
            config: ExperimentConfig) -> tuple[str, str]:
    """Write a table's rows as ``{name}.csv`` plus its manifest."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(row.csv_values() for row in rows)
    # Each table fixes its own signal, so record the one its rows ran.
    signal_kind = (",".join(sorted({row.signal for row in rows}))
                   or config.signal_kind.value)
    settings = {**_market_settings({FeeFamily(r.fee_family) for r in rows}),
                "search": asdict(config.search), "signal_kind": signal_kind}
    return _write(out_dir, name, buf.getvalue(), settings,
                  rows=[{"tau": r.tau, "c2": r.c2, "K": r.K, "r": r.r,
                         "branch": r.branch} for r in rows])


def trace_csv(trace: DynamicsTrace) -> str:
    """The trace as CSV text: a header, then one LF-ended line per iteration."""
    lines = ["iter,lambda_p,t1,t2,t3,profit"]
    for k, lam, t1, t2, t3, profit in trace_rows(trace):
        lines.append(f"{k},{lam:.2f},{t1:.2f},{t2:.2f},{t3:.2f},{profit:.2f}")
    return "\n".join(lines) + "\n"


def persist_trace(trace: DynamicsTrace, out_dir: str, name: str,
                  config: ExperimentConfig) -> tuple[str, str]:
    """Trace analogue of :func:`persist`: iter-indexed CSV plus manifest.

    A trace solves no equilibrium, so its manifest has no ``search``, and
    it reads nothing of ``config``, which this takes as :func:`persist`
    does.
    """
    setup = _table_setup(_TRACE_TABLE)
    settings = {**_market_settings({setup.fee_family}),
                "signal_kind": setup.signal.value}
    return _write(out_dir, name, trace_csv(trace), settings,
                  classification={
                      "kind": trace.classification.kind.value,
                      "values": list(trace.classification.values)})


def load_rows(csv_path: str) -> list[dict[str, str]]:
    """Reload a persisted CSV as dict rows (inverse of :func:`persist`)."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
