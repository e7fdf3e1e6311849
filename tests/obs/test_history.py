"""Unit tests for the plan-history store and calibration report."""

import json

import pytest

from repro.api import Session
from repro.obs.history import (
    CalibrationReport,
    PlanHistoryStore,
    QErrorStats,
    plan_fingerprint,
)
from repro.workloads.queries import combi_workload
from repro.workloads.sales import make_sales


@pytest.fixture(scope="module")
def sales_session():
    table = make_sales(2_000)
    session = Session.for_table(table, statistics="exact")
    queries = combi_workload(list(table.column_names)[:3], 2)
    plan = session.optimize(queries).plan
    return session, plan


class TestFingerprint:
    def test_same_plan_same_fingerprint(self, sales_session):
        _, plan = sales_session
        assert plan_fingerprint(plan) == plan_fingerprint(plan)
        assert len(plan_fingerprint(plan)) == 16

    def test_different_workloads_differ(self):
        table = make_sales(1_000)
        session = Session.for_table(table, statistics="exact")
        columns = list(table.column_names)
        plan_a = session.optimize(combi_workload(columns[:2], 1)).plan
        plan_b = session.optimize(combi_workload(columns[:3], 2)).plan
        assert plan_fingerprint(plan_a) != plan_fingerprint(plan_b)


class TestStore:
    def test_append_and_read_round_trip(self, sales_session, tmp_path):
        session, plan = sales_session
        store = PlanHistoryStore(tmp_path / "history.jsonl")
        analysis = session.explain_analyze(plan)
        record = store.append_analysis(analysis, plan, parallelism=1)
        assert record["fingerprint"] == plan_fingerprint(plan)
        read_back = list(store.records())
        assert len(read_back) == 1
        assert read_back[0] == json.loads(json.dumps(record))

    def test_sequence_numbers_survive_reopen(self, sales_session, tmp_path):
        session, plan = sales_session
        path = tmp_path / "history.jsonl"
        analysis = session.explain_analyze(plan)
        PlanHistoryStore(path).append_analysis(analysis, plan)
        reopened = PlanHistoryStore(path)
        reopened.append_analysis(analysis, plan)
        seqs = [r["seq"] for r in reopened.records()]
        assert seqs == [0, 1]

    def test_append_reopens_after_close(self, sales_session, tmp_path):
        session, plan = sales_session
        path = tmp_path / "history.jsonl"
        store = PlanHistoryStore(path)
        analysis = session.explain_analyze(plan)
        store.append_analysis(analysis, plan)
        store.close()
        assert store._handle is None
        # The store stays usable: appends lazily reopen the handle.
        store.append_analysis(analysis, plan)
        assert store._handle is not None
        assert len(path.read_text().splitlines()) == 2
        store.close()

    def test_runs_for_filters_by_fingerprint(self, sales_session, tmp_path):
        session, plan = sales_session
        store = PlanHistoryStore(tmp_path / "history.jsonl")
        analysis = session.explain_analyze(plan)
        store.append_analysis(analysis, plan)
        fingerprint = plan_fingerprint(plan)
        assert len(store.runs_for(fingerprint)) == 1
        assert store.runs_for("0" * 16) == []

    def test_meta_is_preserved(self, sales_session, tmp_path):
        session, plan = sales_session
        store = PlanHistoryStore(tmp_path / "history.jsonl")
        analysis = session.explain_analyze(plan)
        store.append_analysis(analysis, plan, meta={"host": "ci"})
        (record,) = store.records()
        assert record["meta"] == {"host": "ci"}

    def test_missing_file_reads_empty(self, tmp_path):
        store = PlanHistoryStore(tmp_path / "absent.jsonl")
        assert list(store.records()) == []
        assert store.calibration().runs == 0


class TestCalibration:
    def test_serial_and_parallel_runs_group_identically(
        self, sales_session, tmp_path
    ):
        session, plan = sales_session
        store = PlanHistoryStore(tmp_path / "history.jsonl")
        serial = session.explain_analyze(plan, parallelism=1)
        parallel = session.explain_analyze(plan, parallelism=2)
        store.append_analysis(serial, plan, parallelism=1)
        store.append_analysis(parallel, plan, parallelism=2)
        report = store.calibration()
        assert report.runs == 2
        assert report.fingerprints == 1
        assert report.groups, "no operator groups recorded"
        for (operator, regime), stats in report.groups.items():
            assert operator
            assert stats.count > 0
        # Serial and parallel runs of one plan cover the same operators
        # with the same q-errors (bit-identical execution), so every
        # group has an even count.
        assert all(s.count % 2 == 0 for s in report.groups.values())

    def test_relation_filter(self, sales_session, tmp_path):
        session, plan = sales_session
        store = PlanHistoryStore(tmp_path / "history.jsonl")
        analysis = session.explain_analyze(plan)
        store.append_analysis(analysis, plan)
        assert store.calibration(relation="sales").runs == 1
        assert store.calibration(relation="absent").runs == 0

    def test_render_and_as_dict(self, sales_session, tmp_path):
        session, plan = sales_session
        store = PlanHistoryStore(tmp_path / "history.jsonl")
        store.append_analysis(session.explain_analyze(plan), plan)
        report = store.calibration()
        text = report.render()
        assert "calibration over 1 runs" in text
        payload = report.as_dict()
        assert payload["runs"] == 1
        assert all("geometric_mean" in g for g in payload["groups"])


class TestQErrorStats:
    def test_geometric_mean_and_quantiles(self):
        stats = QErrorStats()
        for q in (1.0, 2.0, 4.0):
            stats.add(q, est_rows=q, actual_rows=1.0)
        assert stats.geometric_mean == pytest.approx(2.0)
        assert stats.maximum == 4.0
        assert stats.quantile(0.5) == 2.0

    def test_bias_direction(self):
        over = QErrorStats()
        for _ in range(3):
            over.add(2.0, est_rows=10, actual_rows=5)
        assert over.bias == "over"
        under = QErrorStats()
        for _ in range(3):
            under.add(2.0, est_rows=5, actual_rows=10)
        assert under.bias == "under"
        exact = QErrorStats()
        exact.add(1.0, est_rows=5, actual_rows=5)
        assert exact.bias == "exact"
        mixed = QErrorStats()
        mixed.add(2.0, est_rows=10, actual_rows=5)
        mixed.add(2.0, est_rows=5, actual_rows=10)
        assert mixed.bias == "mixed"

    def test_report_of_empty_store_renders(self):
        report = CalibrationReport(groups={}, runs=0, fingerprints=0)
        assert "0 runs" in report.render()
