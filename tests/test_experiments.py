from __future__ import annotations

import hashlib
import json
import os

import pytest

from womops import LongRunKind
from womops.experiments import (ExperimentConfig, TableId, TraceId,
                                build_problem, cyclic_vs_stationary,
                                load_rows, persist, persist_trace, run_table,
                                run_trace, _table_setup)
from womops.reference import ROW_TOLERANCES, TABLE_ROWS, T7_TRACE


def _hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def t5_rows(config):
    return run_table(config, TableId.T5)


@pytest.fixture(scope="module")
def t4_rows(config):
    return run_table(config, TableId.T4)


@pytest.fixture(scope="module")
def t6_rows(config):
    return run_table(config, TableId.T6)


#: sha256 of the files ``womops reproduce --table T4/T5/T6`` writes.
TABLE_SHA256 = {
    "T4.csv": "4d5ee39567863b09974ab8620d1d5007e61cc4d86184b5cae9e74942b13d1438",
    "T4_manifest.json":
        "426e02c1aab54196379f8ac10ec227340bddf451e22d38eaaa4e9b3f767b5fcd",
    "T5.csv": "9f5c72eb64ffb64b1f371c23030697e0bb7c4eb0ba929eeea873c233245d4ac2",
    "T5_manifest.json":
        "cef0596875c308fdd2c9fba4be5cffb4e9f4555ee31590038d0399f5b323f3a0",
    "T6.csv": "2becab320713913e84bf3b64492f34870d18070030f526cf6f5c7b4de74291f7",
    "T6_manifest.json":
        "b9d0d5c3c2f02dcd080b63b245a25d801102dc9508e4bf19304cfa749245dde8",
}


class TestRunTable:
    def test_t5_reproduces_reference(self, t5_rows):
        ref = TABLE_ROWS["T5"]
        assert len(t5_rows) == len(ref)
        for row in t5_rows:
            t1e, t2e, t3e, fe, lame, pie, dece = ref[(row.tau, row.c2, row.K, row.r)]
            assert row.t1 == pytest.approx(t1e, abs=ROW_TOLERANCES["t"])
            assert row.t2 == pytest.approx(t2e, abs=ROW_TOLERANCES["t"])
            assert row.t3 == pytest.approx(t3e, abs=ROW_TOLERANCES["t"])
            assert row.F == pytest.approx(fe, abs=ROW_TOLERANCES["F"])
            assert row.lambda_p == pytest.approx(lame, abs=ROW_TOLERANCES["lambda_p"])
            assert row.profit == pytest.approx(pie, abs=ROW_TOLERANCES["profit"])
            assert row.no_wom_decision == dece

    def test_structural_finding_rows(self, t5_rows):
        by_key = {(r.K, r.r, r.c2): r for r in t5_rows}
        shed = by_key[(3000.0, 16.0, 0.2)]
        assert shed.t1 == 0.0 and shed.t2 > 0.5
        fast = by_key[(3000.0, 16.0, 0.1)]
        assert fast.t1 > 0.3

    def test_fast_phase_never_exceeds_margin_bound(self, t5_rows):
        for row in t5_rows:
            assert row.t1 <= row.r / 4.0 + 1e-9

    def test_t4_rows_and_decisions(self, t4_rows):
        ref = TABLE_ROWS["T4"]
        for row in t4_rows:
            t1e, t2e, t3e, fe, lame, pie, dece = ref[(row.tau, row.c2, row.K, row.r)]
            assert row.t3 == pytest.approx(t3e, abs=ROW_TOLERANCES["t"])
            assert row.F == pytest.approx(fe, abs=ROW_TOLERANCES["F"])
            assert row.lambda_p == pytest.approx(lame, abs=ROW_TOLERANCES["lambda_p"])
            assert row.profit == pytest.approx(pie, abs=ROW_TOLERANCES["profit"])
            assert row.no_wom_decision == dece
            assert row.t1 <= row.r / 4.0 + 1e-9

    def test_t6_reproduces_reference(self, t6_rows):
        # T6 pairs the frequency signal with the logarithmic fee family
        # (a=20, b=101): the pairing that actually matches the reference
        # rows, whatever the caption labels claim.
        ref = TABLE_ROWS["T6"]
        assert len(t6_rows) == len(ref)
        for row in t6_rows:
            assert row.fee_family == "logarithmic"
            t1e, t2e, t3e, fe, lame, pie, dece = ref[(row.tau, row.c2, row.K, row.r)]
            assert row.t1 == pytest.approx(t1e, abs=ROW_TOLERANCES["t"])
            assert row.t2 == pytest.approx(t2e, abs=ROW_TOLERANCES["t"])
            assert row.t3 == pytest.approx(t3e, abs=ROW_TOLERANCES["t"])
            assert row.lambda_p == pytest.approx(lame, abs=ROW_TOLERANCES["lambda_p"])
            assert row.profit == pytest.approx(pie, abs=ROW_TOLERANCES["profit"])
            assert row.no_wom_decision == dece


class TestRunTrace:
    def test_converging_trace_layout(self, config):
        trace = run_trace(config, TraceId.T7)
        assert len(trace.points) == 11
        for point, lam in zip(trace.points, T7_TRACE["lambda_p"]):
            assert point.lambda_p == pytest.approx(lam, abs=0.02)

    def test_cycling_trace_detected(self, config):
        trace = run_trace(config, TraceId.T8)
        assert trace.classification.kind is LongRunKind.CYCLE2
        lams = [p.lambda_p for p in trace.points]
        assert lams[0::2] == pytest.approx([450.0] * 6, abs=0.02)
        assert lams[1::2] == pytest.approx([186.34] * 5, abs=0.02)


class TestCyclicVsStationary:
    def test_cycle_beats_stationary_at_starred_point(self, config):
        prob = build_problem(config, _table_setup(TableId.T4), 5.0, 3.0,
                             1000.0, 8.0)
        rep = cyclic_vs_stationary(prob, config.search)
        assert rep.cycle_detected
        assert rep.stationary_profit == pytest.approx(295.74, abs=0.05)
        assert rep.cyclic_wins and rep.margin > 100
        assert len(rep.phases) == 2

    def test_time_weighted_average_is_order_invariant(self, config):
        prob = build_problem(config, _table_setup(TableId.T4), 5.0, 3.0,
                             1000.0, 8.0)
        rep = cyclic_vs_stationary(prob, config.search)
        total = sum(ph.cycle_length for ph in rep.phases)
        forward = sum(ph.profit * ph.cycle_length for ph in rep.phases) / total
        backward = sum(ph.profit * ph.cycle_length
                       for ph in reversed(rep.phases)) / total
        assert forward == pytest.approx(backward, rel=1e-15)
        assert rep.long_run_average_profit == pytest.approx(forward, rel=1e-12)

    def test_converging_case_reports_limit_profit(self, config):
        prob = build_problem(config, _table_setup(TableId.T3), 2.0, 1.0,
                             2000.0, 8.0)
        rep = cyclic_vs_stationary(prob, config.search)
        assert not rep.cycle_detected
        assert not rep.cyclic_wins
        assert rep.long_run_average_profit == pytest.approx(951.2, abs=0.5)

    def test_insensitive_customers_tie(self, config):
        prob = build_problem(config, _table_setup(TableId.T3), 2.0, 0.0,
                             2000.0, 8.0)
        rep = cyclic_vs_stationary(prob, config.search)
        assert not rep.cycle_detected
        assert rep.long_run_average_profit == pytest.approx(
            rep.stationary_profit, abs=1e-3)


class TestPersist:
    def test_round_trip_and_determinism(self, config, t5_rows, tmp_path):
        out = str(tmp_path)
        csv_a, man_a = persist(t5_rows, out, "T5", config)
        rows = load_rows(csv_a)
        assert len(rows) == len(t5_rows)
        assert rows[0]["no_wom_decision"] == t5_rows[0].no_wom_decision
        assert float(rows[0]["t3"]) == pytest.approx(t5_rows[0].t3, abs=0.005)
        first = (_hash(csv_a), _hash(man_a))
        csv_b, man_b = persist(t5_rows, out, "T5", config)
        assert (_hash(csv_b), _hash(man_b)) == first
        with open(man_a) as fh:
            manifest = json.load(fh)
        assert manifest["schema"] == 1
        assert manifest["rows"][0]["branch"]
        assert "wall" not in json.dumps(manifest)

    def test_t4_to_t6_bytes_are_pinned(self, config, t4_rows, t5_rows,
                                       t6_rows, tmp_path):
        # persist writes the bytes reproduce writes; T3 is pinned in
        # criterion 9.
        tables = {"T4": t4_rows, "T5": t5_rows, "T6": t6_rows}
        got = {}
        for name, rows in tables.items():
            for path in persist(rows, str(tmp_path), name, config):
                got[os.path.basename(path)] = _hash(path)
        assert got == TABLE_SHA256

    def test_manifest_records_the_signal_the_rows_ran(self, config, t5_rows,
                                                      tmp_path):
        assert config.signal_kind.value == "MDT"
        _, man_path = persist(t5_rows, str(tmp_path), "T5", config)
        with open(man_path) as fh:
            manifest = json.load(fh)
        assert manifest["config"]["signal_kind"] == "NPS"

    def test_empty_results_give_header_only_csv(self, config, tmp_path):
        csv_path, man_path = persist([], str(tmp_path), "empty", config)
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        assert lines == ["tau,c2,K,r,M,signal,fee_family,t1,t2,t3,F,"
                         "lambda_p,profit,no_wom_decision"]
        with open(man_path) as fh:
            assert json.load(fh)["rows"] == []

    def test_trace_persist(self, config, tmp_path):
        trace = run_trace(config, TraceId.T8)
        csv_path, man_path = persist_trace(trace, str(tmp_path), "T8", config)
        rows = load_rows(csv_path)
        assert len(rows) == 11
        assert rows[1]["lambda_p"] == "186.34"
        with open(man_path) as fh:
            manifest = json.load(fh)
        assert manifest["classification"]["kind"] == "cycle-2"


class TestLifetimeMembership:
    def test_fee_revenue_becomes_negligible(self, config):
        from womops import (MDT, FeeFamily, FeeModel, CustomerResponse,
                            MarketParams, EquilibriumProblem,
                            profit_rate, profit_rate_with_fees,
                            solve_equilibrium)
        # A membership of 1e6 days approximates an unbounded horizon.
        params = MarketParams(r=8, K=1000, h=4, tau=2.0, lambda_r=50, M=1e6,
                              f_min=10, f_max=100)
        fm = FeeModel(FeeFamily.LINEAR, 100, 1, 0.56)
        prob = EquilibriumProblem(params, fm, CustomerResponse(1), MDT)
        sol = solve_equilibrium(prob, config.search)
        fee_term = (profit_rate_with_fees(params, fm, sol.policy, sol.fee,
                                          sol.lambda_p)
                    - profit_rate(params, sol.policy, sol.lambda_p))
        assert 0 <= fee_term < 1e-2
        assert sol.policy.cycle_length > 0
