"""Unit tests for histograms, column stats, the sampler and the manager."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.table import Table
from repro.engine.types import coerce_column
from repro.stats.column_stats import exact_column_stats
from repro.stats.histogram import build_histogram
from repro.stats.manager import StatisticsManager
from repro.stats.sampler import TableSampler


class TestHistogram:
    def test_rows_partitioned(self):
        values = np.arange(100)
        histogram = build_histogram("x", values, n_buckets=10)
        assert sum(b.rows for b in histogram.buckets) == 100
        assert len(histogram.buckets) == 10

    def test_bounds_ordered(self):
        rng = np.random.default_rng(1)
        histogram = build_histogram("x", rng.integers(0, 50, 500))
        previous_high = None
        for bucket in histogram.buckets:
            assert bucket.low <= bucket.high
            if previous_high is not None:
                assert bucket.low >= previous_high
            previous_high = bucket.high

    def test_selectivity_full_range(self):
        values = np.arange(100)
        histogram = build_histogram("x", values, n_buckets=5)
        assert histogram.selectivity(0, 99) == pytest.approx(1.0)

    def test_selectivity_empty_range(self):
        histogram = build_histogram("x", np.arange(100), n_buckets=5)
        assert histogram.selectivity(1000, 2000) == 0.0

    def test_string_bounds_take_str(self):
        values = coerce_column(["b", "é", "a", "b"] * 10)
        histogram = build_histogram("s", values, n_buckets=4)
        assert histogram.buckets[0].low == b"a"
        assert histogram.selectivity("a", "b") == pytest.approx(0.75)
        assert histogram.selectivity(b"a", b"b") == pytest.approx(0.75)

    def test_empty_column(self):
        histogram = build_histogram("x", np.array([], dtype=np.int64))
        assert histogram.buckets == () and histogram.total_rows == 0

    def test_string_column(self):
        histogram = build_histogram("s", np.array(["a", "b", "a", "c"]))
        assert sum(b.rows for b in histogram.buckets) == 4

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.integers(-100, 100), min_size=1, max_size=400))
    def test_bucket_invariants(self, values):
        histogram = build_histogram("x", np.array(values), n_buckets=8)
        assert sum(b.rows for b in histogram.buckets) == len(values)
        for bucket in histogram.buckets:
            assert 1 <= bucket.distinct <= bucket.rows


class TestColumnStats:
    def test_basic(self):
        table = Table("t", {"x": [1, 2, 2, 3]})
        stats = exact_column_stats(table, "x")
        assert stats.n_distinct == 3
        assert stats.min_value == 1 and stats.max_value == 3
        assert stats.null_fraction == 0.0

    def test_null_fraction(self):
        table = Table("t", {"s": ["a", "", "", "b"]})
        stats = exact_column_stats(table, "s")
        assert stats.null_fraction == 0.5

    def test_string_avg_width(self):
        table = Table("t", {"s": ["ab", "abcd"]})
        stats = exact_column_stats(table, "s")
        assert stats.avg_width == 3.0

    def test_density(self):
        table = Table("t", {"x": [1, 2, 3, 4]})
        assert exact_column_stats(table, "x").density() == 1.0

    def test_empty_table(self):
        table = Table("t", {"x": np.array([], dtype=np.int64)})
        stats = exact_column_stats(table, "x")
        assert stats.n_rows == 0 and stats.density() == 0.0


class TestSampler:
    def test_sample_size(self, random_table):
        sampler = TableSampler(random_table, sample_rows=100)
        assert random_table.take(sampler.indices()).num_rows == 100

    def test_sample_capped_at_table(self, tiny_table):
        sampler = TableSampler(tiny_table, sample_rows=1_000)
        assert tiny_table.take(sampler.indices()).num_rows == 12

    def test_sample_cached(self, random_table):
        sampler = TableSampler(random_table, sample_rows=50)
        assert sampler.indices() is sampler.indices()

    def test_deterministic_given_seed(self, random_table):
        s1 = random_table.take(TableSampler(random_table, 50, seed=7).indices())
        s2 = random_table.take(TableSampler(random_table, 50, seed=7).indices())
        assert s1.to_rows() == s2.to_rows()

    def test_fraction(self, random_table):
        sampler = TableSampler(random_table, sample_rows=500)
        assert sampler.sample_fraction == pytest.approx(0.1)


class TestStatisticsManager:
    def test_modes(self, random_table):
        for mode in ("exact", "sampled"):
            manager = StatisticsManager(random_table, mode=mode)
            assert manager.estimator.rows(frozenset(["low"])) >= 1

    def test_unknown_mode(self, random_table):
        with pytest.raises(ValueError):
            StatisticsManager(random_table, mode="psychic")

    def test_column_stats_cached(self, random_table):
        manager = StatisticsManager(random_table)
        assert manager.column_stats("low") is manager.column_stats("low")

    def test_ensure_statistics_and_metering(self, random_table):
        manager = StatisticsManager(random_table, mode="sampled")
        manager.ensure_statistics([frozenset(["low"]), frozenset(["mid"])])
        assert len(manager.created_statistics()) == 2
        assert manager.creation_seconds() > 0

    def test_exact_mode_meters_zero(self, random_table):
        manager = StatisticsManager(random_table, mode="exact")
        manager.ensure_statistics([frozenset(["low"])])
        assert manager.creation_seconds() == 0.0
