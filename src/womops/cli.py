"""Command-line front end: JSON config in, deterministic JSON/CSV out.

Commands:

* ``solve-m1 --lambda-p X``: closed-form policy for an observed demand.
* ``solve-m2``: joint fee + policy optimization under stationary feedback.
* ``simulate``: feedback-loop trace as CSV.
* ``reproduce --table T3..T8 [T3..T8 ...] [--out DIR]``: regenerate
  benchmark tables or traces in one process, persist each one's CSV +
  manifest in ``DIR``, and diff each against the embedded reference
  values.  It reads no config document.

Exit codes: 0 success, 2 configuration/usage error, 3 solver error, 4
``reproduce`` wrote its results but a row or trace iteration of some
table missed its tolerance.  Identical config and flags produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .domain import (CustomerResponse, FeeFamily, FeeModel, MarketParams,
                     ShipmentPolicy, SignalKind, SignalSpec, potential_market)
from .dynamics import MAX_SIM_ITERS, LongRunKind, simulate, trace_rows
from .equilibrium import (EquilibriumProblem, EquilibriumSolution,
                          solve_equilibrium)
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
    "signal": {"kind": "MDT", "weights": []},
    "fee": 10.0,
}


@dataclass(frozen=True)
class CliConfig:
    market: MarketParams
    fee_model: FeeModel
    response: CustomerResponse
    signal: SignalSpec
    fee: float


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


def _require(mapping, path: str, key: str, kind):
    """``mapping[key]`` as a float or a str; null counts as missing."""
    where = f"{path}.{key}"
    value = mapping.get(key)
    if value is None:
        raise ConfigError(where, "missing required field")
    if kind is float:
        return _number(value, where)
    if not isinstance(value, str):
        raise ConfigError(where, "must be a string")
    return value


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a validation error it raises names ``path``.

    Field values are read before ``make`` is entered, so a
    :class:`ConfigError` naming the field itself passes through unchanged.
    """
    try:
        return make(*args, **kwargs)
    except WomopsError as exc:
        raise ConfigError(path, str(exc)) from None


def _member(enum_cls, value, path: str, what: str):
    """``enum_cls(value)``; an unknown value is a config error at ``path``."""
    try:
        return enum_cls(value)
    except ValueError:
        raise ConfigError(path, f"unknown {what} {value!r}") from None


def _parse_signal(raw, path: str) -> SignalSpec:
    sk = _member(SignalKind, _require(raw, path, "kind", str), f"{path}.kind",
                 "signal kind")
    weights = raw["weights"]
    if not isinstance(weights, list):
        raise ConfigError(f"{path}.weights", "must be a list")
    parsed = []
    for i, item in enumerate(weights):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError(f"{path}.weights[{i}]", "must be [kind, weight]")
        comp = _member(SignalKind, item[0], f"{path}.weights[{i}]",
                       "signal kind")
        parsed.append((comp, _number(item[1], f"{path}.weights[{i}]")))
    return _build(f"{path}.weights", SignalSpec, sk, tuple(parsed))


def parse_config(data: dict) -> CliConfig:
    """Validate a config document; errors name the offending field path."""
    if not isinstance(data, dict):
        raise ConfigError("$", "config document must be a JSON object")
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {schema!r}")

    merged = dict(DEFAULT_CONFIG)
    for key, value in data.items():
        if key not in DEFAULT_CONFIG:
            raise ConfigError(key, "unknown field")
        default = DEFAULT_CONFIG[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(key, "must be an object")
            for name in value:
                if name not in default:
                    raise ConfigError(f"{key}.{name}", "unknown field")
            value = {**default, **value}
        merged[key] = value

    m = merged["market"]
    market = _build("market", MarketParams,
                    **{key: _require(m, "market", key, float)
                       for key in DEFAULT_CONFIG["market"]})

    f = merged["fee_model"]
    family = _member(FeeFamily, _require(f, "fee_model", "family", str),
                     "fee_model.family", "family")
    fee_model = _build("fee_model", FeeModel, family,
                       **{key: _require(f, "fee_model", key, float)
                          for key in DEFAULT_CONFIG["fee_model"]
                          if key != "family"})

    response = _build("response.c2", CustomerResponse,
                      _require(merged["response"], "response", "c2", float))

    signal_spec = _parse_signal(merged["signal"], "signal")

    fee = _number(merged["fee"], "fee")
    if fee < 0:
        raise ConfigError("fee", "must be >= 0")
    if not fee_model.in_domain(fee):
        raise ConfigError("fee", f"outside the {family.value} fee domain")
    return CliConfig(market, fee_model, response, signal_spec, fee)


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


def solution_to_dict(solution: EquilibriumSolution) -> dict:
    return {
        "policy": policy_to_dict(solution.policy),
        "fee": solution.fee,
        "lambda_p": solution.lambda_p,
        "profit": solution.profit,
        "branch": solution.branch.value,
    }


def _emit_json(obj, out) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"result is not finite: {exc}") from None
    out.write(text + "\n")


def _check_demand(market: MarketParams, lambda_p: float, flag: str) -> None:
    """The policy needs some demand: a zero premium rate needs regulars."""
    if lambda_p == 0 and market.lambda_r == 0:
        raise ConfigError(flag, "must be > 0 when market.lambda_r is 0")


def _cmd_solve_m1(args, out) -> int:
    cfg = load_config(args.config)
    if not 0 <= args.lambda_p < math.inf:
        raise ConfigError("--lambda-p", "must be finite and >= 0")
    _check_demand(cfg.market, args.lambda_p, "--lambda-p")
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
    sol = solve_equilibrium(EquilibriumProblem(cfg.market, cfg.fee_model,
                                               cfg.response, cfg.signal))
    _emit_json(solution_to_dict(sol), out)
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
    _check_demand(cfg.market, seed, "--seed-lambda")
    trace = simulate(cfg.market, cfg.fee_model, cfg.response, cfg.signal,
                     cfg.fee, seed_lambda_p=seed, max_iters=args.iters,
                     tol=args.tol)
    if not all(math.isfinite(v) for row in trace_rows(trace) for v in row):
        raise NonFiniteResult("trace is not finite")
    text = trace_csv(trace)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("--out", f"cannot write results: {exc}") from None
    else:
        out.write(text)
    cls = trace.classification
    print(f"classification: {cls.kind.value}"
          + (f" {tuple(round(v, 4) for v in cls.values)}" if cls.values else ""),
          file=sys.stderr)
    return 0


def _misses(fields) -> list[str]:
    """One note per ``(name, got, want, tol)`` that misses its tolerance."""
    return [f"{name} {got:.4f} vs {want:.2f} (tol {t})"
            for name, got, want, t in fields if abs(got - want) > t]


def _tally(checks) -> tuple[int, int, list[str]]:
    """Matched count, total and one note per ``(label, misses)`` that missed."""
    checks = list(checks)
    notes = [f"  {label}: " + "; ".join(bad) for label, bad in checks if bad]
    return len(checks) - len(notes), len(checks), notes


#: Reference-row fields in table order, each with its ROW_TOLERANCES key.
_ROW_FIELDS = (("t1", "t"), ("t2", "t"), ("t3", "t"), ("F", "F"),
               ("lambda_p", "lambda_p"), ("profit", "profit"))


def _diff_table(table_name: str, rows) -> tuple[int, int, list[str]]:
    reference = TABLE_ROWS[table_name]

    def check(row):
        *want, decision = reference[(row.tau, row.c2, row.K, row.r)]
        bad = _misses((name, getattr(row, name), w, ROW_TOLERANCES[kind])
                      for (name, kind), w in zip(_ROW_FIELDS, want))
        if row.no_wom_decision != decision:
            bad.append(f"decision {row.no_wom_decision} vs {decision}")
        return f"row tau={row.tau:g} c2={row.c2:g} K={row.K:g} r={row.r:g}", bad

    return _tally(map(check, rows))


def _diff_trace(trace_name: str, trace) -> tuple[int, int, list[str]]:
    ref = TRACES[trace_name]

    def check(k):
        if k >= len(trace.points):
            return f"iteration {k}", ["missing"]
        p = trace.points[k]
        got = {"lambda_p": p.lambda_p, "t3": p.policy.t3, "t1": p.policy.t1}
        return f"iteration {k}", _misses(
            (name, value, ref[name][k], TRACE_TOLERANCES[name])
            for name, value in got.items())

    return _tally(map(check, range(len(ref["lambda_p"]))))


def _reproduce(name: str, experiment: ExperimentConfig, out) -> bool:
    """Run, persist and diff one table or trace; True when all matched."""
    if name in TableId.__members__:
        result = run_table(experiment, TableId[name])
        write, diff, unit = persist, _diff_table, "rows"
    else:
        result = run_trace(experiment, TraceId[name])
        write, diff, unit = persist_trace, _diff_trace, "iterations"
    try:
        csv_path, manifest_path = write(result, experiment.out_dir, name,
                                        experiment)
    except OSError as exc:
        raise ConfigError("--out", f"cannot write results: {exc}") from None
    matched, total, notes = diff(name, result)
    out.write(f"{name}: {unit} matched {matched}/{total} within tolerance\n")
    if name in TraceId.__members__:
        out.write(f"{name}: cycle detected: "
                  f"{result.classification.kind is LongRunKind.CYCLE2}\n")
    for note in notes:
        out.write(note + "\n")
    out.write(f"wrote {csv_path}\n")
    out.write(f"wrote {manifest_path}\n")
    return matched == total


def _cmd_reproduce(args, out) -> int:
    experiment = ExperimentConfig(out_dir=args.out)
    # Every table runs, in the order named, even after one has missed.
    missed = [name for name in args.table
              if not _reproduce(name, experiment, out)]
    return 4 if missed else 0


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

    p4 = sub.add_parser("reproduce",
                        help="regenerate benchmark tables or traces")
    p4.add_argument("--table", required=True, nargs="+",
                    choices=[*TableId.__members__, *TraceId.__members__])
    p4.add_argument("--out", default=ExperimentConfig.out_dir)
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
    except (WomopsError, ArithmeticError) as exc:
        # ArithmeticError: finite inputs so extreme that a formula divides
        # by an underflowed zero or overflows.
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
