from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from womops import dynamics
from womops.cli import (config_to_dict, load_config, main, parse_config,
                        solution_from_dict)
from womops.dynamics import MAX_SIM_ITERS
from womops.errors import ConfigError


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
        assert doc["equilibrium_residual"] <= 1e-6

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

    def test_round_trip_through_result_schema(self, tmp_path, capsys):
        code, out, _ = run_cli(["solve-m2"], capsys)
        doc = json.loads(out)
        policy, fee, lam, profit = solution_from_dict(doc)
        assert policy.t3 == doc["policy"]["t3"]
        assert (fee, lam, profit) == (doc["fee"], doc["lambda_p"], doc["profit"])


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
        assert open(target).readline().startswith("iter,")

    def test_flag_validation_is_a_usage_error(self, capsys):
        for argv in (["simulate", "--iters", "-1"],
                     ["simulate", "--seed-lambda", "9999"],
                     ["solve-m1", "--lambda-p", "-3"]):
            code, _, err = run_cli(argv, capsys)
            assert code == 2, argv
            assert "--" in err

    def test_iteration_budget_is_a_usage_error(self, capsys, monkeypatch):
        def step(*args, **kwargs):
            raise AssertionError("no iteration may run")

        monkeypatch.setattr(dynamics, "step", step)
        code, out, err = run_cli(["simulate", "--iters",
                                  str(MAX_SIM_ITERS + 1)], capsys)
        assert code == 2
        assert out == ""
        assert "--iters" in err

    def test_solver_error_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, market={"lambda_r": 0.0})
        code, _, err = run_cli(["solve-m1", "--lambda-p", "0", "-c", cfg],
                               capsys)
        assert code == 3
        assert "solver error" in err


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

    def test_oversized_search_grid_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, search={"n_time": 400})
        code, out, err = run_cli(["solve-m2", "-c", cfg], capsys)
        assert code == 2
        assert out == ""
        assert "search" in err and "budget" in err

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

    def test_config_round_trips_through_schema(self):
        doc = {"schema": 1, "market": {"tau": 1.5, "K": 3000.0},
               "response": {"c2": 0.2},
               "signal": {"kind": "weighted",
                          "weights": [["MDT", 0.25], ["NPS", 0.75]]}}
        cfg = parse_config(doc)
        again = parse_config(config_to_dict(cfg))
        assert again == cfg


class TestTotalParsing:
    """Every malformed input exits 2 naming its path, never a traceback."""

    @staticmethod
    def config_error(tmp_path, capsys, text, argv=("solve-m1", "--lambda-p",
                                                     "450")):
        path = tmp_path / "config.json"
        path.write_text(text)
        code, out, err = run_cli([*argv, "-c", str(path)], capsys)
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
        ("experiment", None), ("market", [1])])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section,
                                           value):
        err = self.config_error(tmp_path, capsys,
                                json.dumps({section: value}))
        assert err.startswith(f"{section}: must be an object")

    def test_too_many_seeds(self, tmp_path, capsys):
        # Rejected while parsing; no solve starts.
        err = self.config_error(tmp_path, capsys,
                                json.dumps({"search": {"top_n": 1000000}}),
                                argv=("solve-m2",))
        assert err.startswith("search: ") and "budget" in err

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
