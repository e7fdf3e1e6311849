"""Unit tests for execution metrics."""

from repro.engine.metrics import ExecutionMetrics


class TestCounters:
    def test_record_scan(self):
        metrics = ExecutionMetrics()
        metrics.record_scan(10, 800)
        metrics.record_scan(5, 400, from_index=True)
        assert metrics.rows_scanned == 15
        assert metrics.bytes_scanned == 1200
        assert metrics.index_scans == 1

    def test_record_materialize(self):
        metrics = ExecutionMetrics()
        metrics.record_materialize(3, 120)
        assert metrics.rows_materialized == 3
        assert metrics.bytes_materialized == 120

    def test_work_is_read_plus_written(self):
        metrics = ExecutionMetrics()
        metrics.record_scan(1, 100)
        metrics.record_materialize(1, 40)
        assert metrics.work == 140

    def test_group_and_sort_ops(self):
        metrics = ExecutionMetrics()
        metrics.record_group_by()
        metrics.record_sort()
        metrics.record_sort()
        assert metrics.group_by_ops == 1
        assert metrics.sort_ops == 2


class TestMerge:
    """``merge_in`` folds ``other`` into ``self`` and leaves ``other``
    alone (the test names predate the removal of the copying variant)."""

    def test_merged_with_sums_counters(self):
        a = ExecutionMetrics()
        a.record_scan(10, 100)
        a.queries_executed = 2
        b = ExecutionMetrics()
        b.record_materialize(4, 50)
        b.queries_executed = 1
        a.merge_in(b)
        assert a.rows_scanned == 10
        assert a.bytes_materialized == 50
        assert a.queries_executed == 3
        assert b.rows_scanned == 0

    def test_merged_with_combines_per_query(self):
        a = ExecutionMetrics()
        a.per_query_bytes["q1"] = 10
        b = ExecutionMetrics()
        b.per_query_bytes["q2"] = 20
        a.merge_in(b)
        assert a.per_query_bytes == {"q1": 10, "q2": 20}

    def test_merged_with_sums_same_per_query_key(self):
        # Regression: a shared key used to be clobbered by the right side.
        a = ExecutionMetrics()
        a.per_query_bytes["q1"] = 10
        b = ExecutionMetrics()
        b.per_query_bytes["q1"] = 7
        b.per_query_bytes["q2"] = 5
        a.merge_in(b)
        assert a.per_query_bytes == {"q1": 17, "q2": 5}
        assert b.per_query_bytes == {"q1": 7, "q2": 5}


class TestSnapshots:
    def test_as_dict_has_all_counters_and_work(self):
        metrics = ExecutionMetrics()
        metrics.record_scan(10, 100)
        metrics.record_materialize(4, 40)
        metrics.record_group_by()
        snapshot = metrics.as_dict()
        for name in ExecutionMetrics.COUNTER_FIELDS:
            assert name in snapshot
        assert snapshot["bytes_scanned"] == 100
        assert snapshot["bytes_materialized"] == 40
        assert snapshot["work"] == 140
        assert "per_query_bytes" not in snapshot

    def test_as_dict_per_query_copies(self):
        metrics = ExecutionMetrics()
        metrics.per_query_bytes["q1"] = 9
        snapshot = metrics.as_dict(per_query=True)
        assert snapshot["per_query_bytes"] == {"q1": 9}
        snapshot["per_query_bytes"]["q1"] = 0
        assert metrics.per_query_bytes["q1"] == 9

    def test_diff_reports_deltas(self):
        before = ExecutionMetrics()
        before.record_scan(5, 50)
        after = ExecutionMetrics()
        after.record_scan(8, 80)
        after.record_materialize(2, 20)
        delta = after.diff(before)
        assert delta["rows_scanned"] == 3
        assert delta["bytes_scanned"] == 30
        assert delta["bytes_materialized"] == 20
        assert delta["work"] == 50
