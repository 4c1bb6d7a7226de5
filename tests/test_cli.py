from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import womops
from womops import dynamics
from womops.cli import (DEFAULT_CONFIG, _diff_trace, load_config, main,
                         parse_config)
from womops.dynamics import MAX_SIM_ITERS
from womops.errors import ConfigError
from womops.experiments import ExperimentConfig, TraceId, run_trace
from womops.reference import TABLE_ROWS, TRACES


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name="config.json", **overrides):
    doc = {"schema": 1}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _hash(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestSolveM1:
    def test_default_market_high_demand(self, capsys):
        code, out, _ = run_cli(["solve-m1", "--lambda-p", "450"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "II"
        assert doc["policy"]["t3"] == pytest.approx(1.4907, abs=5e-5)
        assert doc["kkt_residual"] <= 1e-6

    def test_zero_demand_with_huge_shipment_cost(self, tmp_path, capsys):
        # The fast phase keeps amortizing a huge K (t1* stays below
        # 2K/(h*lam_r*tau)), so the cycle stretches instead of collapsing
        # onto the declared-time-only policy.
        cfg = write_config(tmp_path, market={"K": 1e6})
        code, out, _ = run_cli(["solve-m1", "--lambda-p", "0", "-c", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "III"
        assert doc["policy"]["t1"] > 0

    def test_declared_time_whose_square_underflows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, market={"tau": 2.07e-307})
        code, out, _ = run_cli(["solve-m1", "--lambda-p", "0", "-c", cfg],
                               capsys)
        assert code == 0
        # Exit 0 means the JSON was written without NaN or Infinity.
        assert json.loads(out)["case"] == "III"

    def test_rate_product_that_underflows(self, tmp_path, capsys):
        # h * lambda_p is 0 in floats; case II is then only infeasible.
        cfg = write_config(tmp_path, market={"h": 0.5})
        code, out, _ = run_cli(["solve-m1", "--lambda-p", "5e-324", "-c",
                                cfg], capsys)
        assert code == 0
        assert json.loads(out)["case"] == "III"

    @pytest.mark.parametrize("lambda_p", ["1e-310", "5e-324"])
    def test_rate_whose_case_iv_quotient_overflows(self, lambda_p, capsys):
        # radicand / lambda_p is inf on the default market: case IV still
        # wins, with a profit just below 0, not case III at -179.80.
        code, out, _ = run_cli(["solve-m1", "--lambda-p", lambda_p], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "IV"
        assert -1e-150 < doc["profit"] < 0

    def test_case_iv_with_a_holding_cost_whose_square_underflows(
            self, tmp_path, capsys):
        cfg = write_config(tmp_path, market={"K": 1e306, "h": 1e-300})
        code, out, _ = run_cli(["solve-m1", "--lambda-p", "450", "-c", cfg],
                               capsys)
        assert code == 0
        assert json.loads(out)["case"] == "IV"

    def test_malformed_config_exits_2_with_field_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, market={"r": -1})
        code, _, err = run_cli(["solve-m1", "--lambda-p", "10", "-c", cfg], capsys)
        assert code == 2
        assert "market" in err

    def test_non_numeric_field_named_in_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, market={"tau": "fast"})
        code, _, err = run_cli(["solve-m1", "--lambda-p", "10", "-c", cfg], capsys)
        assert code == 2
        assert "market.tau" in err


class TestSolveM2:
    def test_reference_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, market={"tau": 1.5})
        code, out, _ = run_cli(["solve-m2", "-c", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["profit"] == pytest.approx(1346.67, abs=0.01)
        assert doc["lambda_p"] == pytest.approx(450.0, abs=1e-6)
        # |lambda_p - R(theta)| is zero by construction, so it is not printed.
        assert "equilibrium_residual" not in doc

    def test_insensitive_customers_fill_market(self, tmp_path, capsys):
        cfg = write_config(tmp_path, response={"c2": 0.0})
        code, out, _ = run_cli(["solve-m2", "-c", cfg], capsys)
        assert code == 0
        assert json.loads(out)["lambda_p"] == pytest.approx(450.0, abs=1e-6)

    def test_pinned_fee_uses_boundary_branch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, market={"f_min": 10.0, "f_max": 10.0})
        code, out, _ = run_cli(["solve-m2", "-c", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["fee"] == 10.0
        assert doc["branch"] == "numeric-boundary"

    def test_no_demand_stretches_the_cycle_to_the_cap(self, tmp_path, capsys):
        # No regular demand and N = 0: the profit -K/T is best at T on the
        # search cap, 3 tau here, where every grid seed then lies.
        tau = 6.058552205701222
        cfg = write_config(tmp_path, market={"lambda_r": 0, "tau": tau},
                           fee_model={"family": "logarithmic", "a": 0,
                                      "b": 101})
        code, out, _ = run_cli(["solve-m2", "-c", cfg], capsys)
        assert code == 0
        assert json.loads(out)["profit"] == pytest.approx(-2000.0 / (3 * tau),
                                                          rel=1e-9)

    def test_overflowing_grid_exits_3_without_warnings(self, tmp_path,
                                                       capsys):
        # The grid's profits overflow and are dropped on the way to exit
        # 3; no NumPy RuntimeWarning is emitted, so none prints to stderr.
        cfg = write_config(tmp_path, market={"r": 1e306})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["solve-m2", "-c", cfg], capsys)
        assert code == 3 and out == ""
        assert "polish produced no feasible point" in err
        assert not [w for w in caught if issubclass(w.category,
                                                     RuntimeWarning)]

    def test_unbounded_search_box_exits_3_without_warnings(self, tmp_path,
                                                          capsys):
        # 2K/(h lambda_r) overflows, so the search cap is inf and the
        # lattice on [0, cap] would be NaN: exit 3 before it is built.
        cfg = write_config(tmp_path, market={"K": 1e308, "r": 1e300})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["solve-m2", "-c", cfg], capsys)
        assert code == 3 and out == ""
        assert "no feasible cycle in the search box" in err
        assert not [w for w in caught if issubclass(w.category,
                                                     RuntimeWarning)]

    def test_overflowing_logarithmic_fee_exits_3(self, tmp_path, capsys):
        # delta M (r - hT/2) + b overflows to inf: the logarithmic fee's
        # Newton root is unbounded, so F*(T) is f_min, never NaN, and the
        # overflowing profits end in exit 3.
        cfg = write_config(tmp_path, market={"r": 1e306, "M": 1e6},
                           fee_model={"family": "logarithmic", "a": 20,
                                      "b": 101})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["solve-m2", "-c", cfg], capsys)
        assert code == 3 and out == ""
        assert "polish produced no feasible point" in err
        assert not [w for w in caught if issubclass(w.category,
                                                     RuntimeWarning)]


class TestSimulate:
    def test_reference_trace_rows(self, capsys):
        code, out, err = run_cli(["simulate", "--seed-lambda", "450",
                                  "--iters", "10", "--tol", "0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "iter,lambda_p,t1,t2,t3,profit"
        assert len(lines) == 12
        assert lines[1].startswith("0,450.00,0.00,0.00,1.49")
        assert lines[2].startswith("1,335.41,0.00,0.00,1.73")
        assert "classification" in err

    def test_zero_iterations_seed_only(self, capsys):
        code, out, err = run_cli(["simulate", "--iters", "0"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2
        assert "undetermined" in err

    def test_output_file(self, tmp_path, capsys):
        target = str(tmp_path / "trace.csv")
        code, out, _ = run_cli(["simulate", "--iters", "3", "--out", target],
                               capsys)
        assert code == 0 and out == ""
        with open(target) as fh:
            assert fh.readline().startswith("iter,")

    def test_flag_validation_is_a_usage_error(self, capsys):
        for argv in (["simulate", "--iters", "-1"],
                     ["simulate", "--seed-lambda", "9999"],
                     ["solve-m1", "--lambda-p", "-3"]):
            code, _, err = run_cli(argv, capsys)
            assert code == 2, argv
            assert "--" in err

    def test_iteration_budget_is_a_usage_error(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("no iteration may run")

        monkeypatch.setattr(dynamics, "solve_policy", no_solve)
        code, out, err = run_cli(["simulate", "--iters",
                                  str(MAX_SIM_ITERS + 1)], capsys)
        assert code == 2
        assert out == ""
        assert "--iters" in err

    def test_solver_error_exits_3(self, tmp_path, capsys):
        # Finite inputs whose profit overflows: the CSV would say inf.
        cfg = write_config(tmp_path, market={"r": 1e306})
        target = tmp_path / "trace.csv"
        code, out, err = run_cli(["simulate", "--iters", "3", "-c", cfg,
                                  "--out", str(target)], capsys)
        assert code == 3
        assert "solver error" in err
        assert out == "" and not target.exists()

    def test_zero_demand_rates_name_the_flag(self, tmp_path, capsys):
        # With no regular demand, a zero premium rate leaves nothing to
        # plan for: the flag that set it is at fault, not the solver.
        cfg = write_config(tmp_path, market={"lambda_r": 0.0})
        for argv in (["solve-m1", "--lambda-p", "0"],
                     ["simulate", "--seed-lambda", "0"]):
            code, out, err = run_cli([*argv, "-c", cfg], capsys)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"config error: {argv[1]}: ")
        code, _, _ = run_cli(["solve-m1", "--lambda-p", "10", "-c", cfg],
                             capsys)
        assert code == 0


class TestReproduce:
    def test_t3_summary_and_determinism(self, tmp_path, capsys):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        code, out, _ = run_cli(["reproduce", "--table", "T3", "--out", out_a],
                               capsys)
        assert code == 0
        assert "T3: rows matched 10/10 within tolerance" in out
        code, _, _ = run_cli(["reproduce", "--table", "T3", "--out", out_b],
                             capsys)
        assert code == 0
        for name in ("T3.csv", "T3_manifest.json"):
            assert _hash(os.path.join(out_a, name)) == \
                _hash(os.path.join(out_b, name))

    def test_t8_reports_cycle(self, tmp_path, capsys):
        code, out, _ = run_cli(["reproduce", "--table", "T8",
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "iterations matched 11/11" in out
        assert "cycle detected: True" in out

    def test_unknown_table_is_usage_error(self, capsys):
        code, _, err = run_cli(["reproduce", "--table", "T99"], capsys)
        assert code == 2

    def test_config_flag_is_a_usage_error(self, tmp_path, capsys):
        # reproduce reads no config document: its one setting is --out.
        cfg = write_config(tmp_path)
        code, out, err = run_cli(["reproduce", "--table", "T7", "-c", cfg,
                                  "--out", str(tmp_path / "out")], capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: -c" in err
        assert not (tmp_path / "out").exists()

    def test_table_miss_prints_its_notes(self, tmp_path, capsys,
                                         monkeypatch):
        # A reference row the solver misses on one field and on the
        # decision: both notes reach stdout, under the summary line.
        key = (1.0, 1.0, 2000.0, 8.0)
        *fields, _ = TABLE_ROWS["T3"][key]
        fields[4] += 1.0  # lambda_p 450.00 -> 451.00, tolerance 0.5
        monkeypatch.setitem(TABLE_ROWS["T3"], key, (*fields, "Cycles"))
        code, out, _ = run_cli(["reproduce", "--table", "T3",
                                "--out", str(tmp_path)], capsys)
        assert code == 4
        lines = out.splitlines()
        assert lines[:2] == [
            "T3: rows matched 9/10 within tolerance",
            "  row tau=1 c2=1 K=2000 r=8: lambda_p 450.0000 vs 451.00 "
            "(tol 0.5); decision Opt-Eq vs Cycles"]
        assert lines[2:] == [f"wrote {tmp_path / 'T3.csv'}",
                             f"wrote {tmp_path / 'T3_manifest.json'}"]

    def test_trace_miss_exits_4(self, tmp_path, capsys, monkeypatch):
        # A reference iteration the trace misses: the files are still
        # written, the note reaches stdout and the exit code is 4.
        ref = dict(TRACES["T7"])
        ref["t3"] = list(ref["t3"])
        ref["t3"][2] += 0.5
        monkeypatch.setitem(TRACES, "T7", ref)
        code, out, _ = run_cli(["reproduce", "--table", "T7",
                                "--out", str(tmp_path)], capsys)
        assert code == 4
        lines = out.splitlines()
        assert lines[0] == "T7: iterations matched 10/11 within tolerance"
        assert lines[2].startswith("  iteration 2: t3 ")
        assert lines[3:] == [f"wrote {tmp_path / 'T7.csv'}",
                             f"wrote {tmp_path / 'T7_manifest.json'}"]

    def test_several_tables_in_one_process(self, tmp_path, capsys):
        # Each table's files and stdout lines are those of its own run.
        names = ["T3", "T8", "T7"]
        one, together = tmp_path / "one", tmp_path / "together"
        singles = []
        for name in names:
            code, out, _ = run_cli(["reproduce", "--table", name,
                                    "--out", str(one)], capsys)
            assert code == 0
            singles.append(out)
        code, out, _ = run_cli(["reproduce", "--table", *names,
                                "--out", str(together)], capsys)
        assert code == 0
        assert out == "".join(singles).replace(str(one), str(together))
        assert sorted(os.listdir(together)) == sorted(os.listdir(one))
        for name in os.listdir(one):
            assert (together / name).read_bytes() == (one / name).read_bytes()

    def test_unknown_table_among_several_runs_nothing(self, tmp_path, capsys):
        code, out, err = run_cli(["reproduce", "--table", "T3", "T99",
                                  "--out", str(tmp_path / "out")], capsys)
        assert (code, out) == (2, "")
        assert "invalid choice: 'T99'" in err
        assert not (tmp_path / "out").exists()

    def test_one_miss_among_several_exits_4(self, tmp_path, capsys,
                                            monkeypatch):
        # The table after the miss still runs and matches.
        key = (1.0, 1.0, 2000.0, 8.0)
        *fields, decision = TABLE_ROWS["T3"][key]
        fields[4] += 1.0
        monkeypatch.setitem(TABLE_ROWS["T3"], key, (*fields, decision))
        code, out, _ = run_cli(["reproduce", "--table", "T3", "T8",
                                "--out", str(tmp_path)], capsys)
        assert code == 4
        assert "T3: rows matched 9/10 within tolerance" in out
        assert "T8: iterations matched 11/11 within tolerance" in out
        assert (tmp_path / "T8_manifest.json").exists()

    def test_trace_miss_names_its_tolerance(self):
        trace = run_trace(ExperimentConfig(), TraceId.T7)
        moved = dataclasses.replace(trace.points[3],
                                    lambda_p=trace.points[3].lambda_p + 1.0)
        points = trace.points[:3] + (moved,) + trace.points[4:]
        matched, total, notes = _diff_trace(
            "T7", dataclasses.replace(trace, points=points))
        assert (matched, total) == (10, 11)
        assert notes == [f"  iteration 3: lambda_p {moved.lambda_p:.4f} vs "
                         f"{TRACES['T7']['lambda_p'][3]:.2f} (tol 0.02)"]


def test_commands_leave_numpy_out(tmp_path):
    # NumPy serves the test oracles only: importing the CLI and running
    # each command's default solve never loads it.
    src = Path(womops.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    script = """
import contextlib, io, sys
import womops.cli as cli
for argv in (["solve-m1", "--lambda-p", "450"], ["solve-m2"],
             ["simulate", "--iters", "10"],
             ["reproduce", "--table", "T3", "--out", sys.argv[1]],
             ["reproduce", "--table", "T4", "T7", "--out", sys.argv[1]]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    for name in ("T3", "T4", "T7"):
        assert (tmp_path / f"{name}.csv").exists()


class TestOutputPaths:
    """An output location that cannot be written exits 2 at its name."""

    def test_empty_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["reproduce", "--table", "T7", "--out", ""],
                                 capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: --out: ")
        assert os.listdir(tmp_path) == []

    def test_simulate_empty_out(self, capsys):
        code, out, err = run_cli(["simulate", "--iters", "3", "--out", ""],
                                 capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: --out: ")

    @pytest.mark.parametrize("table, under", [("T3", False), ("T7", True)])
    def test_out_names_a_file(self, tmp_path, capsys, table, under):
        target = tmp_path / "taken"
        target.write_text("")
        out_dir = target / "sub" if under else target
        code, out, err = run_cli(["reproduce", "--table", table,
                                  "--out", str(out_dir)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: --out: ")

    def test_simulate_out_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "trace.csv"
        code, out, err = run_cli(["simulate", "--iters", "3",
                                  "--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: --out: ")


class TestConfig:
    def test_defaults_validate(self):
        cfg = parse_config({})
        assert cfg.market.tau == 2.0
        assert cfg.fee == 10.0

    def test_unknown_signal_kind(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({"signal": {"kind": "VIBES"}})
        assert exc.value.path == "signal.kind"

    def test_weighted_signal_parses(self):
        cfg = parse_config({"signal": {"kind": "weighted",
                                       "weights": [["MDT", 0.5], ["NPS", 0.5]]}})
        assert len(cfg.signal.weights) == 2

    def test_fee_outside_domain(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({"fee": 200.0})
        assert exc.value.path == "fee"

    @pytest.mark.parametrize("bound, market", [
        ("f_max", {"f_max": 150.0}),
        ("f_min", {"f_min": 120.0, "f_max": 130.0}),
    ])
    def test_fee_bound_outside_domain_exits_2(self, tmp_path, capsys, bound,
                                              market):
        cfg = write_config(tmp_path, market=market,
                           fee_model={"family": "logarithmic", "a": 20,
                                      "b": 101, "delta": 5})
        code, out, err = run_cli(["solve-m2", "-c", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f"market.{bound}" in err

    def test_fee_box_is_checked_by_solve_m2_only(self, tmp_path, capsys):
        # simulate reads the fee, not the fee box searched by solve-m2.
        cfg = write_config(tmp_path, fee=50.0,
                           fee_model={"family": "linear", "a": 80, "b": 1,
                                      "delta": 5})
        code, out, err = run_cli(["simulate", "-c", cfg, "--iters", "3"],
                                 capsys)
        assert code == 0
        assert out.startswith("iter,")
        code, out, err = run_cli(["solve-m2", "-c", cfg], capsys)
        assert (code, out) == (2, "")
        assert "market.f_max" in err

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError):
            parse_config({"schema": 99})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_config_reserialization_stable(self, tmp_path):
        doc = {"schema": 1, "market": {"tau": 1.5}, "response": {"c2": 3}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        a = load_config(str(path))
        b = load_config(str(path))
        assert a == b


class TestErrorPaths:
    """One bad value per config field: the exit code and the path named."""

    @pytest.mark.parametrize("doc, path", [
        ({"schema": 2}, "schema"),
        ({"market": {"r": -1}}, "market"),
        ({"market": {"K": 0}}, "market"),
        ({"market": {"h": "4"}}, "market.h"),
        ({"market": {"tau": "fast"}}, "market.tau"),
        ({"market": {"lambda_r": -1}}, "market"),
        ({"market": {"M": None}}, "market.M"),
        ({"market": {"f_min": -1}}, "market"),
        ({"market": {"f_max": True}}, "market.f_max"),
        ({"fee_model": {"family": "cubic"}}, "fee_model.family"),
        ({"fee_model": {"family": 1}}, "fee_model.family"),
        ({"fee_model": {"a": "x"}}, "fee_model.a"),
        ({"fee_model": {"b": []}}, "fee_model.b"),
        ({"fee_model": {"delta": 0}}, "fee_model"),
        ({"response": {"c2": -1}}, "response.c2"),
        ({"response": {"c2": None}}, "response.c2"),
        ({"signal": {"kind": "VIBES"}}, "signal.kind"),
        ({"signal": {"kind": 3}}, "signal.kind"),
        ({"signal": {"kind": "weighted"}}, "signal.weights"),
        ({"signal": {"kind": "weighted",
                     "weights": [["MDT", 0.25], ["NPS", 0.25]]}},
         "signal.weights"),
        ({"signal": {"kind": "weighted", "weights": [["MDT"]]}},
         "signal.weights[0]"),
        ({"signal": {"kind": "weighted", "weights": [["ETA", 1.0]]}},
         "signal.weights[0]"),
        ({"fee": 200}, "fee"),
        ({"fee": "10"}, "fee"),
        # Rows keep their places, so each row's test id stays stable.
        # `search` and `experiment` are not in the schema, whatever they hold.
        ({"market": {"tau": 0}}, "market"),
        ({"search": {}}, "search"),
        ({"signal": {"kind": "weighted", "weights": 3}}, "signal.weights"),
        ({"search": {"n_time": 40, "top_n": 8}}, "search"),
        ({"signal": {"kind": "weighted", "weights": [["weighted", 1.0]]}},
         "signal.weights"),
        ({"signal": {"kind": "weighted",
                     "weights": [["MDT", 1.5], ["NPS", -0.5]]}},
         "signal.weights"),
        ({"search": None}, "search"),
        ({"experiment": {"out_dir": "womops-out"}}, "experiment"),
        ({"experiment": {}}, "experiment"),
        ({"fee": -5}, "fee"),
        ({"markett": {"r": 1}}, "markett"),
        ({"market": {"R": 1}}, "market.R"),
        ({"fee": 10 ** 400}, "fee"),
        ({"experiment": None}, "experiment"),
        ({"signal": {"kind": "MDT", "weights": [["NPS", 1.0]]}},
         "signal.weights"),
    ])
    def test_bad_field(self, tmp_path, capsys, doc, path):
        cfg = write_config(tmp_path, **doc)
        code, out, err = run_cli(["solve-m1", "--lambda-p", "450", "-c", cfg],
                                 capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {path}: ")
        (section,) = doc
        if section not in DEFAULT_CONFIG:
            assert err == f"config error: {section}: unknown field\n"

    def test_negative_logarithmic_scale(self, tmp_path, capsys):
        cfg = write_config(tmp_path, fee_model={"family": "logarithmic",
                                                "a": -20, "b": 101,
                                                "delta": 5})
        for argv in (["solve-m2"], ["simulate", "--iters", "3"]):
            code, out, err = run_cli([*argv, "-c", cfg], capsys)
            assert (code, out) == (2, ""), argv
            assert err.startswith("config error: fee_model: ")


class TestTotalParsing:
    """Every malformed input exits 2 naming its path, never a traceback."""

    @staticmethod
    def config_error(tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code, out, err = run_cli(["solve-m1", "--lambda-p", "450", "-c",
                                  str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: ")
        return err[len("config error: "):]

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_rejected_at_parse(self, tmp_path, capsys,
                                                    constant):
        err = self.config_error(tmp_path, capsys,
                                '{"market": {"lambda_r": %s}}' % constant)
        assert err.startswith("$: ")

    def test_overflowing_number_names_its_field(self, tmp_path, capsys):
        err = self.config_error(tmp_path, capsys, '{"fee": 1e999}')
        assert err.startswith("fee: ")

    def test_non_numeric_signal_weight(self, tmp_path, capsys):
        doc = {"signal": {"kind": "weighted",
                          "weights": [["MDT", 0.5], ["NPS", "half"]]}}
        err = self.config_error(tmp_path, capsys, json.dumps(doc))
        assert err.startswith("signal.weights[1]: ")

    @pytest.mark.parametrize("section,value", [
        ("response", 3), ("fee_model", []), ("signal", "MDT"),
        ("response", None), ("market", [1])])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section,
                                           value):
        err = self.config_error(tmp_path, capsys,
                                json.dumps({section: value}))
        assert err.startswith(f"{section}: must be an object")

    @pytest.mark.parametrize("text, message", [
        ("{", "invalid JSON"), ("[]", "config document must be a JSON object")])
    def test_document_that_is_not_an_object(self, tmp_path, capsys, text,
                                            message):
        err = self.config_error(tmp_path, capsys, text)
        assert err.startswith(f"$: {message}")

    def test_non_finite_result_exits_3_without_output(self, tmp_path, capsys):
        # Finite inputs whose profit overflows: the JSON would say Infinity.
        cfg = write_config(tmp_path, market={"r": 1e306})
        code, out, err = run_cli(["solve-m1", "--lambda-p", "450", "-c", cfg],
                                 capsys)
        assert code == 3 and out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("argv", [
        ["solve-m1", "--lambda-p", "nan"], ["solve-m1", "--lambda-p", "inf"],
        ["simulate", "--tol", "nan"], ["simulate", "--seed-lambda", "nan"]])
    def test_non_finite_flags(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {argv[1]}: ")


_NUMBERS = st.one_of(
    st.sampled_from([0, 1, 2, 5, 10, 50, 100, 101, 2000, -1, 0.5, 1e-300,
                     1e6, 1e306, -1e306]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6))
_VALUES = st.one_of(_NUMBERS, st.sampled_from([None, True, "x", [], {}]))
_MARKET_KEYS = ("r", "K", "h", "tau", "lambda_r", "M", "f_min", "f_max")
_SIGNALS = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["MDT", "NPS", "x", 3])}),
    st.fixed_dictionaries({
        "kind": st.just("weighted"),
        "weights": st.lists(st.lists(st.one_of(
            st.sampled_from(["MDT", "NPS", "weighted"]), _VALUES),
            min_size=1, max_size=3), max_size=3)}),
    _VALUES)
_NONNEGATIVE = st.one_of(
    st.sampled_from([0, 0.5, 1, 2, 5, 10, 50, 100, 101, 2000, 1e-300, 1e6,
                     1e306]),
    st.floats(0, 1e4))
#: Documents that mostly parse, so that most draws reach the solver.
_SOLVABLE = st.fixed_dictionaries({
    "market": st.dictionaries(st.sampled_from(_MARKET_KEYS), _NONNEGATIVE,
                              max_size=3),
    "fee_model": st.sampled_from([
        {"family": "linear", "a": 100, "b": 1},
        {"family": "logarithmic", "a": 20, "b": 101}]),
    "response": st.fixed_dictionaries({"c2": st.floats(0, 5)}),
    "signal": st.fixed_dictionaries({"kind": st.sampled_from(["MDT", "NPS"])}),
})
_DOCUMENTS = st.fixed_dictionaries({}, optional={
    "market": st.one_of(st.dictionaries(st.sampled_from(_MARKET_KEYS),
                                        _VALUES, max_size=3), _VALUES),
    "fee_model": st.fixed_dictionaries({}, optional={
        "family": st.sampled_from(["linear", "logarithmic", "x", 3]),
        "a": _VALUES, "b": _VALUES, "delta": _VALUES}),
    "response": st.fixed_dictionaries({}, optional={"c2": _VALUES}),
    "signal": _SIGNALS,
    "fee": _VALUES,
})


class TestFuzzedConfig:
    """Every config document ends in exit 0, 2 or 3, never a traceback."""

    @staticmethod
    def run(argv, out_dir=None) -> tuple[int, str]:
        """Run ``argv``; with ``out_dir``, files written there are output
        too, and their location is left out of the check."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            texts = [out.getvalue()]
            if out_dir is not None:
                texts[0] = texts[0].replace(out_dir, "")
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name),
                              encoding="utf-8") as fh:
                        texts.append(fh.read())
            for text in map(str.lower, texts):
                assert "nan" not in text and "inf" not in text, text
        else:
            assert out.getvalue() == ""
        return code, err.getvalue()

    def run_doc(self, doc, argv) -> tuple[int, str]:
        """Run ``argv`` with ``doc`` as its config document."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, allow_nan=False)
            return self.run([*argv, "-c", path])

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENTS, st.sampled_from(["0", "1e-9", "10", "450", "1e6",
                                        "1e306"]))
    def test_solve_m1(self, doc, lambda_p):
        self.run_doc(doc, ["solve-m1", "--lambda-p", lambda_p])

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENTS, st.sampled_from([[], ["--seed-lambda", "0"],
                                        ["--seed-lambda", "100"]]))
    def test_simulate(self, doc, seed):
        self.run_doc(doc, ["simulate", "--iters", "5", *seed])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_DOCUMENTS, _SOLVABLE))
    def test_solve_m2(self, doc):
        self.run_doc(doc, ["solve-m2"])

    def test_reproduce_trace(self):
        # Each --out lies inside a fresh temporary directory, so nothing is
        # written anywhere else; "" names that directory itself.
        for out_dir in ("", "out", "a/b"):
            for table in ("T7", "T8"):
                with tempfile.TemporaryDirectory() as tmp:
                    target = os.path.join(tmp, out_dir)
                    code, _ = self.run(["reproduce", "--table", table,
                                        "--out", target], target)
                    assert code == 0
                    assert sorted(os.listdir(target)) == [
                        f"{table}.csv", f"{table}_manifest.json"]
