"""Command-line front end: JSON config in, deterministic JSON/CSV out.

Commands:

* ``solve-m1 --lambda-p X``: closed-form policy for an observed demand.
* ``solve-m2``: joint fee + policy optimization under stationary feedback.
* ``simulate``: feedback-loop trace as CSV.
* ``reproduce --table T3..T8``: regenerate a benchmark table or trace,
  persist CSV + manifest, and diff against the embedded reference values.

Exit codes: 0 success, 2 configuration/usage error, 3 solver error.
Identical config and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace

from .domain import (CustomerResponse, FeeFamily, FeeModel, MarketParams,
                     ShipmentPolicy, SignalKind, SignalSpec, potential_market)
from .dynamics import MAX_SIM_ITERS, simulate
from .equilibrium import (EquilibriumProblem, EquilibriumSolution, SearchSpec,
                          equilibrium_residual, solve_equilibrium)
from .errors import ConfigError, NonFiniteResult, WomopsError
from .experiments import (ExperimentConfig, TableId, TraceId, persist,
                          persist_trace, run_table, run_trace, trace_csv)
from .myopic import solve_policy
from .reference import ROW_TOLERANCES, TABLE_ROWS, TRACE_TOLERANCES, TRACES

SCHEMA_VERSION = 1

DEFAULT_CONFIG = {
    "schema": SCHEMA_VERSION,
    "market": {"r": 8.0, "K": 2000.0, "h": 4.0, "tau": 2.0, "lambda_r": 50.0,
               "M": 30.0, "f_min": 10.0, "f_max": 100.0},
    "fee_model": {"family": "linear", "a": 100.0, "b": 1.0, "delta": 5.0},
    "response": {"c2": 1.0},
    "signal": {"kind": "MDT"},
    "fee": 10.0,
    "search": {},
    "experiment": {"out_dir": "womops-out"},
}


@dataclass(frozen=True)
class CliConfig:
    market: MarketParams
    fee_model: FeeModel
    response: CustomerResponse
    signal: SignalSpec
    fee: float
    search: SearchSpec
    out_dir: str
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)


def _number(value, path: str) -> float:
    """A JSON number as a finite float; anything else is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    return value


def _require(mapping, path: str, key: str, kind, default):
    value = mapping.get(key, default)
    if value is None:
        raise ConfigError(f"{path}.{key}", "missing required field")
    if kind is float:
        return _number(value, f"{path}.{key}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{key}", "must be an integer")
        return value
    if kind is str and not isinstance(value, str):
        raise ConfigError(f"{path}.{key}", "must be a string")
    return value


def _parse_signal(raw, path: str) -> SignalSpec:
    kind = _require(raw, path, "kind", str, "MDT")
    try:
        sk = SignalKind(kind) if kind != "weighted" else SignalKind.WEIGHTED
    except ValueError:
        raise ConfigError(f"{path}.kind", f"unknown signal kind {kind!r}") from None
    if sk is not SignalKind.WEIGHTED:
        return SignalSpec(sk)
    weights = raw.get("weights")
    if not isinstance(weights, list) or not weights:
        raise ConfigError(f"{path}.weights", "weighted signal needs components")
    parsed = []
    for i, item in enumerate(weights):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError(f"{path}.weights[{i}]", "must be [kind, weight]")
        try:
            comp = SignalKind(item[0])
        except ValueError:
            raise ConfigError(f"{path}.weights[{i}]",
                              f"unknown signal kind {item[0]!r}") from None
        parsed.append((comp, _number(item[1], f"{path}.weights[{i}]")))
    try:
        return SignalSpec(SignalKind.WEIGHTED, tuple(parsed))
    except WomopsError as exc:
        raise ConfigError(f"{path}.weights", str(exc)) from None


def parse_config(data: dict) -> CliConfig:
    """Validate a config document; errors name the offending field path."""
    if not isinstance(data, dict):
        raise ConfigError("$", "config document must be a JSON object")
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {schema!r}")

    merged = dict(DEFAULT_CONFIG)
    for key, value in data.items():
        default = DEFAULT_CONFIG.get(key)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(key, "must be an object")
            value = {**default, **value}
        merged[key] = value

    m = merged["market"]
    try:
        market = MarketParams(
            r=_require(m, "market", "r", float, None),
            K=_require(m, "market", "K", float, None),
            h=_require(m, "market", "h", float, None),
            tau=_require(m, "market", "tau", float, None),
            lambda_r=_require(m, "market", "lambda_r", float, None),
            M=_require(m, "market", "M", float, None),
            f_min=_require(m, "market", "f_min", float, None),
            f_max=_require(m, "market", "f_max", float, None))
    except WomopsError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("market", str(exc)) from None

    f = merged["fee_model"]
    family_name = _require(f, "fee_model", "family", str, "linear")
    try:
        family = FeeFamily(family_name)
    except ValueError:
        raise ConfigError("fee_model.family",
                          f"unknown family {family_name!r}") from None
    try:
        fee_model = FeeModel(family,
                             a=_require(f, "fee_model", "a", float, None),
                             b=_require(f, "fee_model", "b", float, None),
                             delta=_require(f, "fee_model", "delta", float, None))
    except WomopsError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("fee_model", str(exc)) from None

    try:
        response = CustomerResponse(
            _require(merged["response"], "response", "c2", float, None))
    except WomopsError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("response.c2", str(exc)) from None

    signal_spec = _parse_signal(merged["signal"], "signal")

    fee = _number(merged["fee"], "fee")
    if not fee_model.in_domain(fee):
        raise ConfigError("fee", f"outside the {family.value} fee domain")

    s = merged["search"]
    try:
        search = SearchSpec(
            n_time=_require(s, "search", "n_time", int, 40),
            n_fee=_require(s, "search", "n_fee", int, 30),
            top_n=_require(s, "search", "top_n", int, 8),
            polish_tol=_require(s, "search", "polish_tol", float, 1e-8))
    except WomopsError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("search", str(exc)) from None

    e = merged["experiment"]
    out_dir = _require(e, "experiment", "out_dir", str, "womops-out")
    experiment = replace(ExperimentConfig(), search=search, out_dir=out_dir)
    return CliConfig(market, fee_model, response, signal_spec, fee, search,
                     out_dir, experiment)


def config_to_dict(cfg: CliConfig) -> dict:
    """Serialize a validated config back to the JSON schema."""
    m = cfg.market
    doc = {
        "schema": SCHEMA_VERSION,
        "market": {"r": m.r, "K": m.K, "h": m.h, "tau": m.tau,
                   "lambda_r": m.lambda_r, "M": m.M, "f_min": m.f_min,
                   "f_max": m.f_max},
        "fee_model": {"family": cfg.fee_model.family.value, "a": cfg.fee_model.a,
                      "b": cfg.fee_model.b, "delta": cfg.fee_model.delta},
        "response": {"c2": cfg.response.c2},
        "signal": {"kind": cfg.signal.kind.value},
        "fee": cfg.fee,
        "search": {"n_time": cfg.search.n_time, "n_fee": cfg.search.n_fee,
                   "top_n": cfg.search.top_n,
                   "polish_tol": cfg.search.polish_tol},
        "experiment": {"out_dir": cfg.out_dir},
    }
    if cfg.signal.kind is SignalKind.WEIGHTED:
        doc["signal"]["weights"] = [[kind.value, weight]
                                    for kind, weight in cfg.signal.weights]
    return doc


def _reject_constant(name: str):
    raise ConfigError("$", f"{name} is not a JSON number")


def load_config(path: str | None) -> CliConfig:
    if path is None:
        return parse_config({})
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError("$", f"cannot read config: {exc}") from None
    except ValueError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    return parse_config(data)


def policy_to_dict(policy: ShipmentPolicy) -> dict:
    return {"t1": policy.t1, "t2": policy.t2, "t3": policy.t3,
            "T": policy.cycle_length}


def solution_to_dict(problem: EquilibriumProblem,
                     solution: EquilibriumSolution) -> dict:
    return {
        "policy": policy_to_dict(solution.policy),
        "fee": solution.fee,
        "lambda_p": solution.lambda_p,
        "profit": solution.profit,
        "branch": solution.branch.value,
        "equilibrium_residual": equilibrium_residual(problem, solution),
    }


def solution_from_dict(data: dict) -> tuple[ShipmentPolicy, float, float, float]:
    """Inverse of :func:`solution_to_dict` for the value fields."""
    pol = data["policy"]
    return (ShipmentPolicy(pol["t1"], pol["t2"], pol["t3"]),
            data["fee"], data["lambda_p"], data["profit"])


def _emit_json(obj, out) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"result is not finite: {exc}") from None
    out.write(text + "\n")


def _cmd_solve_m1(args, out) -> int:
    cfg = load_config(args.config)
    if not 0 <= args.lambda_p < math.inf:
        raise ConfigError("--lambda-p", "must be finite and >= 0")
    sol = solve_policy(cfg.market, args.lambda_p)
    _emit_json({
        "case": sol.case.value,
        "policy": policy_to_dict(sol.policy),
        "profit": sol.profit,
        "lambda_p": sol.lambda_p,
        "kkt_residual": sol.kkt_residual,
    }, out)
    return 0


def _cmd_solve_m2(args, out) -> int:
    cfg = load_config(args.config)
    # The equilibrium search needs N(F) defined over the whole fee box;
    # N is nonincreasing in F for both families, so the bounds decide.
    for bound in ("f_min", "f_max"):
        if not cfg.fee_model.in_domain(getattr(cfg.market, bound)):
            raise ConfigError(f"market.{bound}", "outside the "
                              f"{cfg.fee_model.family.value} fee domain")
    problem = EquilibriumProblem(cfg.market, cfg.fee_model, cfg.response,
                                 cfg.signal)
    sol = solve_equilibrium(problem, cfg.search)
    _emit_json(solution_to_dict(problem, sol), out)
    return 0


def _cmd_simulate(args, out) -> int:
    cfg = load_config(args.config)
    if not 0 <= args.iters <= MAX_SIM_ITERS:
        raise ConfigError("--iters", f"must be in [0, {MAX_SIM_ITERS}]")
    if not 0 <= args.tol < math.inf:
        raise ConfigError("--tol", "must be finite and >= 0")
    c1 = potential_market(cfg.fee_model, cfg.fee)
    seed = c1 if args.seed_lambda is None else args.seed_lambda
    if not (0 <= seed <= c1):
        raise ConfigError("--seed-lambda", f"must lie in [0, c1(F)={c1:g}]")
    trace = simulate(cfg.market, cfg.fee_model, cfg.response, cfg.signal,
                     cfg.fee, seed_lambda_p=seed, max_iters=args.iters,
                     tol=args.tol)
    text = trace_csv(trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        out.write(text)
    cls = trace.classification
    print(f"classification: {cls.kind.value}"
          + (f" {tuple(round(v, 4) for v in cls.values)}" if cls.values else ""),
          file=sys.stderr)
    return 0


def _diff_table(table_name: str, rows) -> tuple[int, int, list[str]]:
    reference = TABLE_ROWS[table_name]
    tol = ROW_TOLERANCES
    matched = 0
    notes: list[str] = []
    for row in rows:
        key = (row.tau, row.c2, row.K, row.r)
        exp = reference[key]
        t1e, t2e, t3e, fe, lame, pie, dece = exp
        deltas = {
            "t1": (row.t1, t1e, tol["t"]), "t2": (row.t2, t2e, tol["t"]),
            "t3": (row.t3, t3e, tol["t"]), "F": (row.F, fe, tol["F"]),
            "lambda_p": (row.lambda_p, lame, tol["lambda_p"]),
            "profit": (row.profit, pie, tol["profit"]),
        }
        bad = [f"{name} {got:.4f} vs {want:.2f} (tol {t})"
               for name, (got, want, t) in deltas.items()
               if abs(got - want) > t]
        if row.no_wom_decision != dece:
            bad.append(f"decision {row.no_wom_decision} vs {dece}")
        if bad:
            notes.append(f"  row tau={row.tau:g} c2={row.c2:g} K={row.K:g} "
                         f"r={row.r:g}: " + "; ".join(bad))
        else:
            matched += 1
    return matched, len(rows), notes


def _diff_trace(trace_name: str, trace) -> tuple[int, int, list[str]]:
    ref = TRACES[trace_name]
    tol = TRACE_TOLERANCES
    matched = 0
    notes: list[str] = []
    points = trace.points
    for k in range(len(ref["lambda_p"])):
        if k >= len(points):
            notes.append(f"  iteration {k}: missing")
            continue
        p = points[k]
        bad = []
        if abs(p.lambda_p - ref["lambda_p"][k]) > tol["lambda_p"]:
            bad.append(f"lambda_p {p.lambda_p:.4f} vs {ref['lambda_p'][k]:.2f}")
        if abs(p.policy.t3 - ref["t3"][k]) > tol["t3"]:
            bad.append(f"t3 {p.policy.t3:.4f} vs {ref['t3'][k]:.2f}")
        if abs(p.policy.t1 - ref["t1"][k]) > tol["t1"]:
            bad.append(f"t1 {p.policy.t1:.4f} vs {ref['t1'][k]:.2f}")
        if bad:
            notes.append(f"  iteration {k}: " + "; ".join(bad))
        else:
            matched += 1
    return matched, len(ref["lambda_p"]), notes


def _cmd_reproduce(args, out) -> int:
    cfg = load_config(args.config)
    experiment = replace(cfg.experiment, out_dir=args.out or cfg.out_dir)
    name = args.table
    if name in TableId.__members__:
        rows = run_table(experiment, TableId[name])
        csv_path, manifest_path = persist(rows, experiment.out_dir, name,
                                          experiment)
        matched, total, notes = _diff_table(name, rows)
        out.write(f"{name}: rows matched {matched}/{total} within tolerance\n")
    else:
        trace = run_trace(experiment, TraceId[name])
        csv_path, manifest_path = persist_trace(trace, experiment.out_dir,
                                                name, experiment)
        matched, total, notes = _diff_trace(name, trace)
        out.write(f"{name}: iterations matched {matched}/{total} within tolerance\n")
        out.write(f"{name}: cycle detected: "
                  f"{trace.classification.kind.value == 'cycle-2'}\n")
    for note in notes:
        out.write(note + "\n")
    out.write(f"wrote {csv_path}\n")
    out.write(f"wrote {manifest_path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="womops",
        description="Shipment-policy optimization under review-driven "
                    "demand feedback.")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("solve-m1", help="closed-form policy for an observed demand")
    p1.add_argument("--lambda-p", dest="lambda_p", type=float, required=True)
    p1.add_argument("-c", "--config")
    p1.set_defaults(func=_cmd_solve_m1)

    p2 = sub.add_parser("solve-m2", help="joint fee and policy optimization")
    p2.add_argument("-c", "--config")
    p2.set_defaults(func=_cmd_solve_m2)

    p3 = sub.add_parser("simulate", help="feedback-loop trace as CSV")
    p3.add_argument("-c", "--config")
    p3.add_argument("--seed-lambda", dest="seed_lambda", type=float)
    p3.add_argument("--iters", type=int, default=200)
    p3.add_argument("--tol", type=float, default=1e-4)
    p3.add_argument("--out")
    p3.set_defaults(func=_cmd_simulate)

    p4 = sub.add_parser("reproduce", help="regenerate a benchmark table or trace")
    p4.add_argument("--table", required=True,
                    choices=["T3", "T4", "T5", "T6", "T7", "T8"])
    p4.add_argument("--out")
    p4.add_argument("-c", "--config")
    p4.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, sys.stdout)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WomopsError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
