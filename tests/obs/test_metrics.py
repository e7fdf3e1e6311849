"""Unit tests for the metrics registry: series, export, no-op mode."""

import json
import math
import re
import threading

import pytest

from repro.obs.metrics import (
    NOOP_METRICS,
    HistogramValue,
    MetricsRegistry,
    NoopMetricsRegistry,
    _bucket_index,
    bucket_upper_bound,
    disable_metrics,
    enable_metrics,
    get_metrics,
    set_metrics,
)


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("requests_total")
        registry.inc("requests_total", 4)
        assert registry.value("requests_total") == 5

    def test_labels_address_distinct_series(self):
        registry = MetricsRegistry()
        registry.inc("ops_total", op="hash")
        registry.inc("ops_total", 2, op="sort")
        assert registry.value("ops_total", op="hash") == 1
        assert registry.value("ops_total", op="sort") == 2
        assert registry.value("ops_total", op="other") == 0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.inc("ops_total", a="1", b="2")
        registry.inc("ops_total", b="2", a="1")
        assert registry.value("ops_total", b="2", a="1") == 2

    def test_gauge_sets_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("temp_bytes", 10)
        registry.set_gauge("temp_bytes", 3)
        assert registry.value("temp_bytes") == 3

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.inc("n_total")
        with pytest.raises(ValueError, match="counter"):
            registry.set_gauge("n_total", 1)
        with pytest.raises(ValueError, match="counter"):
            registry.observe("n_total", 1.0)

    def test_invalid_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.inc("bad name")
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.inc("")

    def test_describe_sets_help(self):
        registry = MetricsRegistry()
        registry.describe("runs_total", "counter", "completed runs")
        registry.inc("runs_total")
        exposition = registry.to_prometheus()
        assert "# HELP runs_total completed runs" in exposition


class TestHistograms:
    def test_bucket_index_is_monotone(self):
        values = [0.001, 0.5, 1.0, 3.0, 1000.0]
        indices = [_bucket_index(v) for v in values]
        assert indices == sorted(indices)
        for value in values:
            assert value <= bucket_upper_bound(_bucket_index(value))

    def test_quantiles_bracket_the_data(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.observe("latency_seconds", float(value))
        histogram = registry.histogram("latency_seconds")
        assert histogram.count == 100
        assert histogram.quantile(0.5) == pytest.approx(50, rel=1.0)
        assert histogram.quantile(0.99) >= histogram.quantile(0.5)
        stats = histogram.as_dict()
        assert stats["count"] == 100
        assert stats["min"] == 1.0
        assert stats["max"] == 100.0
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= 100.0

    def test_nonpositive_values_share_the_zero_bucket(self):
        histogram = HistogramValue()
        histogram.add(0.0)
        histogram.add(-5.0)
        histogram.add(2.0)
        assert histogram.count == 3
        assert histogram.quantile(0.0) <= 0.0


PROMETHEUS_LINE = re.compile(
    r"^(#\s(HELP|TYPE)\s[a-zA-Z_:][a-zA-Z0-9_:]*.*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?\s[-+0-9.eE naif]+)$"
)


def parse_prometheus(text: str) -> dict[str, float]:
    """Minimal exposition-format parser: validates every line's shape
    and returns sample name+labels -> value."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line:
            continue
        assert PROMETHEUS_LINE.match(line), f"malformed line: {line!r}"
        if line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


class TestPrometheusExport:
    def test_exposition_parses_and_round_trips_values(self):
        registry = MetricsRegistry()
        registry.inc("runs_total", 3, relation="sales")
        registry.set_gauge("peak_bytes", 42)
        registry.observe("op_seconds", 0.5, op="hash")
        registry.observe("op_seconds", 1.5, op="hash")
        samples = parse_prometheus(registry.to_prometheus())
        assert samples['runs_total{relation="sales"}'] == 3
        assert samples["peak_bytes"] == 42
        assert samples['op_seconds_count{op="hash"}'] == 2
        assert samples['op_seconds_sum{op="hash"}'] == 2.0

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        for value in (0.1, 0.2, 10.0):
            registry.observe("h_seconds", value)
        lines = registry.to_prometheus().splitlines()
        bucket_lines = [l for l in lines if l.startswith("h_seconds_bucket")]
        counts = [float(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert 'le="+Inf"' in bucket_lines[-1]
        assert counts[-1] == 3

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.inc("odd_total", src='quo"te\\slash')
        exposition = registry.to_prometheus()
        assert '\\"' in exposition and "\\\\" in exposition
        assert parse_prometheus(exposition)  # still parses

    def test_json_snapshot_is_valid_json(self):
        registry = MetricsRegistry()
        registry.inc("a_total")
        registry.observe("b_seconds", 1.0)
        payload = json.loads(registry.to_json())
        assert payload["a_total"]["kind"] == "counter"
        assert payload["b_seconds"]["kind"] == "histogram"


class TestNoopAndGlobals:
    def test_noop_registry_records_nothing(self):
        noop = NoopMetricsRegistry()
        noop.inc("a_total")
        noop.set_gauge("b", 1)
        noop.observe("c_seconds", 1.0)
        assert not noop.enabled
        assert noop.flat_snapshot() == {}

    def test_global_default_is_noop(self):
        assert get_metrics() is NOOP_METRICS

    def test_enable_disable_cycle(self):
        try:
            registry = enable_metrics()
            assert get_metrics() is registry
            registry.inc("x_total")
            assert registry.value("x_total") == 1
        finally:
            disable_metrics()
        assert get_metrics() is NOOP_METRICS

    def test_set_metrics_installs_custom_registry(self):
        registry = MetricsRegistry()
        try:
            set_metrics(registry)
            assert get_metrics() is registry
        finally:
            disable_metrics()

    def test_clear_resets_series(self):
        registry = MetricsRegistry()
        registry.inc("a_total")
        registry.clear()
        assert registry.flat_snapshot() == {}


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        per_thread = 2_000

        def work():
            for _ in range(per_thread):
                registry.inc("hits_total", worker="w")
                registry.observe("lat_seconds", 0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("hits_total", worker="w") == 8 * per_thread
        assert registry.histogram("lat_seconds").count == 8 * per_thread


class TestSessionWiring:
    def test_execution_records_executor_and_dictcache_metrics(self):
        from repro.api import Session
        from repro.workloads.queries import combi_workload
        from repro.workloads.sales import make_sales

        registry = MetricsRegistry()
        table = make_sales(2_000)
        columns = list(table.column_names)[:3]
        session = Session.for_table(
            table, statistics="exact", metrics=registry
        )
        queries = combi_workload(columns, 2)
        plan = session.optimize(queries).plan
        session.execute(plan)
        assert registry.value("repro_executor_runs_total",
                              relation="sales", mode="wavefront") == 1
        assert registry.value("repro_executor_queries_total",
                              relation="sales") >= len(queries)
        assert registry.value("repro_optimizer_runs_total",
                              relation="sales") == 1
        assert registry.value("repro_costmodel_calls_total") > 0
        groupings = [
            key
            for key in registry.flat_snapshot()
            if key.startswith("repro_executor_groupings_total")
        ]
        assert groupings, "no grouping regime counters recorded"
        assert math.isfinite(
            registry.histogram(
                "repro_executor_run_seconds",
                relation="sales", mode="wavefront",
            ).quantile(0.5)
        )
