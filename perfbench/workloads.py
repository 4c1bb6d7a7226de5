"""The benchmark's workloads: seeded inputs, operations and their checks.

A workload is a list of operations repeated in whole rounds, so every run
attempts the same mix and the known faults make up the same share of it.
Inputs are drawn from ``--seed`` when the workload is built; the program
only ever sees the generated values.  Operations call the program through
module attributes (``dynamics.simulate``, not a captured reference) so that
the traced run can wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from womops import dynamics, equilibrium, experiments, myopic
from womops.domain import (CustomerResponse, FeeFamily, FeeModel,
                           MarketParams, SignalKind, SignalSpec)
from womops.reference import TABLE_ROWS, TRACES

import checks

FAULT_A = ("dynamics._classify_sequence labels a slowly damped convergent "
           "trajectory as a two-point cycle")
FAULT_B = ("experiments.persist records ExperimentConfig.signal_kind, not the "
           "signal the table ran")


@dataclass(frozen=True)
class Op:
    """One timed call into the program and the check of its result."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    fault: str | None = None  # the known program fault this operation hits


def _market(tau: float, K: float, r: float) -> MarketParams:
    """The benchmark market of the paper with (tau, K, r) varied."""
    return MarketParams(r=r, K=K, h=4.0, tau=tau, lambda_r=50.0, M=30.0,
                        f_min=10.0, f_max=100.0)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# --------------------------------------------------------------- tables

#: Signal and fee family of each published table (see womops.reference).
TABLE_SETUPS = {
    "T3": (SignalKind.MDT, FeeFamily.LINEAR),
    "T4": (SignalKind.MDT, FeeFamily.LOGARITHMIC),
    "T5": (SignalKind.NPS, FeeFamily.LINEAR),
    "T6": (SignalKind.NPS, FeeFamily.LOGARITHMIC),
}


class Tables:
    """T3-T6 rows, T7/T8 traces and their persistence, as ``reproduce`` runs them.

    One round: the 44 rows and 2 traces in a seeded order, then the 4 table
    and 2 trace persists in a seeded order (52 operations).
    """

    name = "tables"
    tail_pct = 90.0
    min_rounds = 2  # 104 latencies leave ten beyond the 90th percentile

    def __init__(self, seed: int, out_dir: str) -> None:
        # The configuration `womops reproduce --out DIR` runs with.
        self.config = experiments.ExperimentConfig(out_dir=out_dir)
        self.setups = {
            name: experiments.TableSetup(signal, family, 5.0, "monthly",
                                         tuple(sorted(TABLE_ROWS[name])))
            for name, (signal, family) in TABLE_SETUPS.items()}
        rng = np.random.default_rng(seed)
        compute = [(name, key) for name, setup in self.setups.items()
                   for key in setup.rows] + [(name, None) for name in TRACES]
        self.compute_order = [compute[i] for i in rng.permutation(len(compute))]
        persists = list(self.setups) + list(TRACES)
        self.persist_order = [persists[i]
                              for i in rng.permutation(len(persists))]

    def round(self, index: int) -> list[Op]:
        solved: dict[str, dict] = {name: {} for name in self.setups}
        traced: dict[str, Any] = {}
        ops = [self._trace_op(name, traced) if key is None
               else self._row_op(name, key, solved[name])
               for name, key in self.compute_order]
        ops += [self._persist_trace_op(name, traced) if name in TRACES
                else self._persist_op(name, solved[name])
                for name in self.persist_order]
        return ops

    def _row_op(self, name: str, key: tuple, solved: dict) -> Op:
        setup, config = self.setups[name], self.config

        def run():
            tau, c2, K, r = key
            problem = experiments.build_problem(config, setup, tau, c2, K, r)
            sol = equilibrium.solve_equilibrium(problem, config.search)
            rec = equilibrium.recoverability(problem, sol)
            row = experiments.ResultRow(
                tau=tau, c2=c2, K=K, r=r, M=problem.params.M,
                signal=setup.signal.value, fee_family=setup.fee_family.value,
                t1=sol.policy.t1, t2=sol.policy.t2, t3=sol.policy.t3,
                F=sol.fee, lambda_p=sol.lambda_p, profit=sol.profit,
                no_wom_decision=rec.label, branch=sol.branch.value)
            solved[key] = row
            return row, problem, sol

        return Op("row", run, lambda out: checks.check_row(
            TABLE_ROWS[name], out[0], out[1], out[2]))

    def _persist_op(self, name: str, solved: dict) -> Op:
        setup, config = self.setups[name], self.config

        def run():
            rows = [solved[key] for key in setup.rows]
            return rows, experiments.persist(rows, config.out_dir, name, config)

        fault = FAULT_B if setup.signal is not config.signal_kind else None
        return Op("persist", run, lambda out: checks.check_table_files(
            *out[1], name, out[0], experiments.load_rows), fault)

    def _trace_op(self, name: str, traced: dict) -> Op:
        def run():
            trace = experiments.run_trace(self.config,
                                          experiments.TraceId[name])
            traced[name] = trace
            return trace

        return Op("trace", run,
                  lambda trace: checks.check_trace(TRACES[name], name, trace))

    def _persist_trace_op(self, name: str, traced: dict) -> Op:
        config = self.config

        def run():
            trace = traced[name]
            return trace, experiments.persist_trace(trace, config.out_dir,
                                                    name, config)

        return Op("persist", run, lambda out: checks.check_trace_files(
            *out[1], name, out[0], experiments.load_rows))


# ------------------------------------------------------------- feedback


@dataclass(frozen=True)
class Draw:
    """Inputs of one feedback-loop simulation."""

    params: MarketParams
    fee_model: FeeModel
    resp: CustomerResponse
    spec: SignalSpec
    fee: float
    tol: float = 1e-6  # the horizon cyclic_vs_stationary simulates at


def _fee_model(rng: np.random.Generator) -> FeeModel:
    if rng.random() < 0.5:
        return FeeModel(FeeFamily.LINEAR, 100.0, 1.0, 5.0)
    return FeeModel(FeeFamily.LOGARITHMIC, 20.0, 101.0, 5.0)


#: Fixed inputs of fault (a): the T3 market at F = 10 with c2 just above
#: 1.8, where the damped oscillation passes the two-point-cycle test, at
#: the tolerance recoverability simulates with.  Their 137 and 162
#: iterations stay inside the range of the seeded near-2 band.
FAULT_A_DRAWS = tuple(
    Draw(_market(tau, 2000.0, 8.0), FeeModel(FeeFamily.LINEAR, 100.0, 1.0, 5.0),
         CustomerResponse(c2), SignalSpec(SignalKind.MDT), 10.0, tol=1e-4)
    for tau, c2 in ((5.0, 1.82), (6.0, 1.85)))


class Feedback:
    """Seeded feedback-loop simulations under MDT, NPS and weighted signals.

    One round: 16 draws per signal kind plus the fault (a) inputs (50
    operations).  A quarter of the MDT draws lie in the near-2 band of c2,
    where trajectories run for 119 to 169 iterations; the other draws
    settle within about 120 (MDT) or 40 (NPS, weighted) iterations.
    """

    name = "feedback"
    tail_pct = 99.9
    min_rounds = 200   # 10000 latencies leave ten beyond the 99.9th percentile
    pool_rounds = 256  # distinct seeded rounds; a run cycles through them
    per_signal = 16
    band_share = 4     # MDT draws per round in the near-2 band
    MDT_BAND = (1.70, 1.78)
    # With tau >= 1 and c2 in these ranges, NPS and weighted trajectories
    # settle within tens of iterations; beyond them some draws run out the
    # horizon or hit fault (a) (see README.md).
    NPS_C2 = (0.1, 0.6)
    WEIGHTED_C2 = (0.1, 1.5)

    def __init__(self, seed: int, out_dir: str) -> None:
        rng = np.random.default_rng(seed)
        fault_ops = [self._op(d, FAULT_A) for d in FAULT_A_DRAWS]
        self.pool = [[self._op(d) for d in self._draw_round(rng)] + fault_ops
                     for _ in range(self.pool_rounds)]

    def round(self, index: int) -> list[Op]:
        return self.pool[index % self.pool_rounds]

    def _draw_round(self, rng: np.random.Generator) -> list[Draw]:
        draws = []
        for i in range(self.per_signal):
            band = i < self.band_share
            draws.append(self._mdt(rng, band))
            draws.append(self._nps(rng))
            draws.append(self._weighted(rng))
        return draws

    def _mdt(self, rng: np.random.Generator, band: bool) -> Draw:
        if band:
            # Potential market above 2K/(h tau^2), so the loop converges to
            # an interior limit at contraction factor c2/2 in (0.85, 0.89).
            params = _market(_log_uniform(rng, 3.0, 7.0),
                             rng.uniform(1000.0, 3000.0),
                             _log_uniform(rng, 8.0, 48.0))
            fee = rng.uniform(10.0, 40.0)
            c2 = rng.uniform(*self.MDT_BAND)
        else:
            params = _market(_log_uniform(rng, 1.0, 7.0),
                             rng.uniform(1000.0, 4000.0),
                             _log_uniform(rng, 8.0, 48.0))
            fee = rng.uniform(10.0, 90.0)
            # c2 in [0.1, 1.7) or [2, 3): outside the band and the fault.
            u = rng.uniform(0.0, 2.6)
            c2 = 0.1 + u if u < 1.6 else 0.4 + u
        return Draw(params, _fee_model(rng), CustomerResponse(float(c2)),
                    SignalSpec(SignalKind.MDT), float(fee))

    def _nps(self, rng: np.random.Generator) -> Draw:
        params = _market(_log_uniform(rng, 1.0, 7.0),
                         rng.uniform(1000.0, 4000.0),
                         _log_uniform(rng, 8.0, 48.0))
        return Draw(params, _fee_model(rng),
                    CustomerResponse(float(rng.uniform(*self.NPS_C2))),
                    SignalSpec(SignalKind.NPS), float(rng.uniform(10.0, 90.0)))

    def _weighted(self, rng: np.random.Generator) -> Draw:
        params = _market(_log_uniform(rng, 1.0, 7.0),
                         rng.uniform(1000.0, 4000.0),
                         _log_uniform(rng, 8.0, 48.0))
        w = float(rng.uniform(0.2, 0.8))
        spec = SignalSpec(SignalKind.WEIGHTED,
                          ((SignalKind.MDT, w), (SignalKind.NPS, 1.0 - w)))
        return Draw(params, _fee_model(rng),
                    CustomerResponse(float(rng.uniform(*self.WEIGHTED_C2))),
                    spec, float(rng.uniform(10.0, 90.0)))

    @staticmethod
    def _op(d: Draw, fault: str | None = None) -> Op:
        mdt = d.spec.kind is SignalKind.MDT

        def run():
            trace = dynamics.simulate(d.params, d.fee_model, d.resp, d.spec,
                                      d.fee, max_iters=1000, tol=d.tol)
            prediction = (dynamics.predict_long_run(
                d.params, d.fee_model, d.resp, d.spec, d.fee) if mdt else None)
            return trace, prediction

        return Op("simulate", run,
                  lambda out: checks.check_feedback(d, out[0], out[1]), fault)


# --------------------------------------------------------------- oracle


def oracle_grid_points(tau, t_max, step: float):
    """(t1, T) pairs ``grid_search_policy`` scans: its axis lengths multiplied."""
    n_phase = np.floor(np.asarray(t_max) / step + 1e-9)
    n_t3 = np.floor(np.minimum(tau, t_max) / step + 1e-9)
    return (n_phase + 1) * (2 * n_phase + n_t3)


class Oracle:
    """Closed-form policy against the brute-force grid at step 0.005.

    Instances are drawn log-uniform over the ranges of acceptance criterion
    4: tau in [1, 7], K in [2000, 4000], r in [8, 48], lambda_p in
    [30, 500].  The cost of an instance is its grid size, which spans 0.75
    to 26 million points, so each round of 16 takes one instance from each
    of 16 equal slices of log(grid size): every round holds the same spread
    of costs whatever the seed.
    """

    name = "oracle"
    tail_pct = 90.0
    min_rounds = 7     # 112 latencies leave ten beyond the 90th percentile
    pool_rounds = 64
    per_round = 16
    step = 0.005
    LOW = np.array([1.0, 2000.0, 8.0, 30.0])     # tau, K, r, lambda_p
    HIGH = np.array([7.0, 4000.0, 48.0, 500.0])

    def __init__(self, seed: int, out_dir: str) -> None:
        rng = np.random.default_rng(seed)
        self.pool = [self._draw_round(rng) for _ in range(self.pool_rounds)]

    def round(self, index: int) -> list[Op]:
        return self.pool[index % self.pool_rounds]

    def _log_points(self, tau, K, lam):
        # GridSpec's default bound max(tau, 2 sqrt(2K/(h lambda_p))), h = 4.
        t_max = np.maximum(tau, 2.0 * np.sqrt(2.0 * K / (4.0 * lam)))
        return np.log(oracle_grid_points(tau, t_max, self.step))

    def _draw_round(self, rng: np.random.Generator) -> list[Op]:
        n = self.per_round
        # The grid grows with tau and K and shrinks with lambda_p.
        lo = self._log_points(self.LOW[0], self.LOW[1], self.HIGH[3])
        hi = self._log_points(self.HIGH[0], self.HIGH[1], self.LOW[3])
        chosen: dict[int, np.ndarray] = {}
        while len(chosen) < n:
            draws = np.exp(rng.uniform(np.log(self.LOW), np.log(self.HIGH),
                                       size=(4096, 4)))
            cost = self._log_points(draws[:, 0], draws[:, 1], draws[:, 3])
            slices = np.clip(((cost - lo) / (hi - lo) * n).astype(int), 0, n - 1)
            for i in range(n):
                hits = np.flatnonzero(slices == i)
                if i not in chosen and hits.size:
                    chosen[i] = draws[hits[0]]
        return [self._op(_market(float(tau), float(K), float(r)), float(lam))
                for tau, K, r, lam in (chosen[i] for i in range(n))]

    def _op(self, params: MarketParams, lam: float) -> Op:
        grid_spec = myopic.GridSpec(step=self.step)

        def run():
            return (myopic.solve_policy(params, lam),
                    myopic.grid_search_policy(params, lam, grid_spec))

        return Op("oracle", run, lambda out: checks.check_oracle(
            params, lam, self.step, out[0], out[1]))


WORKLOADS = {w.name: w for w in (Tables, Feedback, Oracle)}
