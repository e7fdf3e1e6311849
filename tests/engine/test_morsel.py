"""Morsel two-phase aggregation: bit-identical to single-pass group_by.

The contract under test is the tentpole invariant: splitting a relation
into row-range morsels, computing decomposable partial aggregate states
per morsel, and merging them must reproduce the single-pass ``group_by``
result *bit for bit* — same group ordering, same dtypes, same values —
for every supported aggregate, every morsel count, and both grouping
strategies.  Inputs are integer-valued (including the ``INT_NULL``
sentinel), where float64 accumulation is exact, so any mismatch is an
ordering or plumbing bug rather than float noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.aggregation import (
    AggregateSpec,
    group_by,
)
from repro.engine.morsel import (
    MAX_MORSELS,
    MORSEL_TARGET_ROWS,
    MorselGrouping,
    Workers,
    compute_morsel_groupings,
    morsel_count,
    morsel_ranges,
)
from repro.engine.table import Table
from repro.engine.types import INT_NULL

ALL_AGGREGATES = [
    AggregateSpec.count_star(),
    AggregateSpec("sum", "v", "sum_v"),
    AggregateSpec("min", "v", "min_v"),
    AggregateSpec("max", "v", "max_v"),
    AggregateSpec("avg", "v", "avg_v"),
    AggregateSpec("count_col", "nv", "cnt_nv"),
    AggregateSpec("min", "s", "min_s"),
    AggregateSpec("max", "s", "max_s"),
]


def make_table(n, rng_seed=0, card=7):
    rng = np.random.default_rng(rng_seed)
    if n == 0:
        return Table.wrap(
            "t",
            {
                "a": np.zeros(0, dtype=np.int64),
                "b": np.zeros(0, dtype=np.int64),
                "v": np.zeros(0, dtype=np.int64),
                "nv": np.zeros(0, dtype=np.int64),
                "s": np.zeros(0, dtype="U2"),
            },
        )
    nv = rng.integers(-5, 100, n)
    nv[rng.random(n) < 0.2] = INT_NULL
    return Table.wrap(
        "t",
        {
            "a": rng.integers(0, card, n),
            "b": rng.integers(0, 3, n),
            "v": rng.integers(-50, 50, n),
            "nv": nv,
            "s": np.array(rng.choice(["", "a", "b", "zz"], n), dtype="U2"),
        },
    )


def two_phase(table, keys, aggregates, morsels):
    """Compute one grouping via partial states + merge, or single-pass
    where two-phase cannot apply (as the executor runs it)."""
    grouping = MorselGrouping(table, keys, aggregates)
    if not grouping.feasible:
        return group_by(table, keys, aggregates)
    parts = [
        grouping.partial(start, stop)
        for start, stop in morsel_ranges(table.num_rows, morsels)
    ]
    return grouping.merge(parts)


def assert_tables_bit_identical(a, b):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for column in a.column_names:
        assert a[column].dtype == b[column].dtype
        np.testing.assert_array_equal(a[column], b[column])


class TestPartialMergeBitIdentity:
    @pytest.mark.parametrize("morsels", [1, 2, 7])
    @pytest.mark.parametrize("strategy", ["hash", "sort"])
    @pytest.mark.parametrize("keys", [["a"], ["a", "b"], ["s", "a"]])
    def test_all_aggregates(self, morsels, strategy, keys):
        table = make_table(500, rng_seed=1)
        single = group_by(table, keys, ALL_AGGREGATES, strategy=strategy)
        merged = two_phase(table, keys, ALL_AGGREGATES, morsels)
        assert_tables_bit_identical(single, merged)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("morsels", [1, 2, 7])
    def test_degenerate_tables(self, n, morsels):
        table = make_table(n)
        single = group_by(table, ["a"], ALL_AGGREGATES)
        merged = two_phase(table, ["a"], ALL_AGGREGATES, morsels)
        assert_tables_bit_identical(single, merged)

    @given(
        n=st.integers(min_value=0, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
        morsels=st.sampled_from([1, 2, 7]),
        strategy=st.sampled_from(["hash", "sort"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_tables(self, n, seed, morsels, strategy, data):
        table = make_table(n, rng_seed=seed, card=data.draw(
            st.sampled_from([1, 2, 7, 40])
        ))
        keys = data.draw(
            st.sampled_from([["a"], ["b", "a"], ["a", "b"], ["s"]])
        )
        aggs = data.draw(
            st.lists(
                st.sampled_from(ALL_AGGREGATES),
                min_size=1,
                max_size=4,
                unique_by=lambda spec: spec.alias,
            )
        )
        single = group_by(table, keys, aggs, strategy=strategy)
        merged = two_phase(table, keys, aggs, morsels)
        assert_tables_bit_identical(single, merged)

    def test_near_unique_keys_fall_back(self):
        """A composite domain far beyond the input rows is infeasible."""
        n = 400
        rng = np.random.default_rng(9)
        table = Table.wrap(
            "t",
            {
                # Composite domain 400 x 200 = 80k, past the feasibility
                # floor (MORSEL_TARGET_ROWS) and far beyond the rows.
                "hi": np.arange(n, dtype=np.int64),
                "lo": rng.integers(0, 200, n),
            },
        )
        grouping = MorselGrouping(table, ["hi", "lo"], [AggregateSpec.count_star()])
        assert not grouping.feasible
        # The executor runs it single-pass; a morsel batch refuses it.
        with pytest.raises(ValueError, match="feasible"):
            compute_morsel_groupings(table, [grouping], 2, 1)


class TestBatchExecution:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_shared_scan_batch_matches_serial(self, parallelism):
        table = make_table(800, rng_seed=3, card=11)
        specs = [
            (["a"], [AggregateSpec.count_star()]),
            (["b"], ALL_AGGREGATES),
            (["a", "b"], [AggregateSpec("sum", "v", "sum_v")]),
        ]
        groupings = [
            MorselGrouping(table, keys, aggs) for keys, aggs in specs
        ]
        tables, stats = compute_morsel_groupings(
            table, groupings, 4, parallelism
        )
        assert stats.morsels == 4
        assert sum(stats.bytes_per_morsel) > 0
        for (keys, aggs), out in zip(specs, tables):
            assert_tables_bit_identical(group_by(table, keys, aggs), out)

    def test_attached_dictionaries_match_plain_group_by(self):
        table = make_table(600, rng_seed=7)
        grouping = MorselGrouping(
            table,
            ["a", "b"],
            [AggregateSpec.count_star()],
        )
        [out], _ = compute_morsel_groupings(table, [grouping], 3, 1)
        plain = group_by(table, ["a", "b"], [AggregateSpec.count_star()])
        for key in ("a", "b"):
            codes, uniques = out.dictionary(key)
            codes_p, uniques_p = plain.dictionary(key)
            np.testing.assert_array_equal(uniques[codes], uniques_p[codes_p])


class TestMorselPartitioning:
    @given(
        n=st.integers(min_value=0, max_value=500_000),
        morsels=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=200, deadline=None)
    def test_ranges_cover_exactly_once(self, n, morsels):
        ranges = morsel_ranges(n, morsels)
        if n == 0:
            assert ranges == []
            return
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in ranges]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1

    def test_morsel_count_bounds(self):
        assert morsel_count(0) == 1
        assert morsel_count(1, parallelism=8) == 1
        assert morsel_count(MORSEL_TARGET_ROWS) == 1
        assert morsel_count(MORSEL_TARGET_ROWS + 1, parallelism=4) == 4
        assert morsel_count(10**9) == MAX_MORSELS

    def test_small_tables_never_split(self):
        """Splitting a one-morsel table only multiplies fixed costs."""
        for parallelism in (1, 4, 16):
            assert morsel_count(MORSEL_TARGET_ROWS // 2, parallelism) == 1


class TestWorkers:
    """The caller plus pool threads run every index once, in order."""

    def test_every_index_once_under_contention(self, monkeypatch):
        import sys
        import threading

        from repro.engine import morsel

        monkeypatch.setattr(morsel, "usable_cpus", lambda: 8)
        calls = []
        threads = set()

        def task(index):
            calls.append(index)
            threads.add(threading.current_thread().name)
            return index * index

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Workers(8, "test-workers") as workers:
                for count in (0, 1, 2, 7, 500, 500):
                    calls.clear()
                    assert workers.map(task, count) == [
                        i * i for i in range(count)
                    ]
                    assert sorted(calls) == list(range(count))
        finally:
            sys.setswitchinterval(interval)
        # One pool for every map: the caller and at most seven threads.
        assert threading.current_thread().name in threads
        assert len(threads) <= 8
        assert not any(
            t.name.startswith("test-workers") for t in threading.enumerate()
        )

    def test_failure_raised_after_every_worker_stops(self, monkeypatch):
        from repro.engine import morsel

        monkeypatch.setattr(morsel, "usable_cpus", lambda: 4)
        done = []

        def task(index):
            if index == 3:
                raise ValueError("boom")
            done.append(index)

        with Workers(4, "test-workers") as workers:
            with pytest.raises(ValueError, match="boom"):
                workers.map(task, 40)
        assert sorted(done) == [i for i in range(40) if i != 3]

    def test_never_more_threads_than_usable_cpus(self, monkeypatch):
        from repro.engine import morsel

        monkeypatch.setattr(morsel, "usable_cpus", lambda: 2)
        assert Workers(16, "test-workers").parallelism == 2
        assert Workers(0, "test-workers").parallelism == 1


class TestExecutorModes:
    """End-to-end mode resolution, equality, and accounting."""

    def _session(self, rows, **kwargs):
        from repro.api import Session
        from repro.workloads.sales import make_sales

        return Session.for_table(
            make_sales(rows), statistics="exact", **kwargs
        )

    def _plan(self, session, width=4):
        from repro.workloads.queries import combi_workload

        table = session.catalog.get(session.base_table)
        queries = combi_workload(list(table.column_names)[:width], 2)
        return session.optimize(queries).plan

    def test_forced_morsel_matches_serial_bit_for_bit(self):
        session = self._session(40_000)
        plan = self._plan(session)
        serial = session.execute(plan, parallelism=1, mode="serial")
        morsel = session.execute(plan, parallelism=4, mode="morsel")
        assert serial.metrics.mode == "serial"
        assert morsel.metrics.mode == "morsel"
        assert set(serial.results) == set(morsel.results)
        for query in serial.results:
            assert_tables_bit_identical(
                serial.results[query], morsel.results[query]
            )
        assert serial.metrics.as_dict(
            per_query=True
        ) == morsel.metrics.as_dict(per_query=True)

    def test_auto_picks_wavefront_at_scale(self):
        """Without a memory budget ``auto`` runs the waves; morsel runs
        only when forced."""
        session = self._session(40_000)
        plan = self._plan(session)
        result = session.execute(plan, parallelism=4)
        assert result.metrics.mode == "wavefront"

    def test_unknown_mode_rejected(self):
        from repro.engine.executor import ExecutionError

        session = self._session(4_000)
        plan = self._plan(session)
        with pytest.raises(ExecutionError):
            session.execute(plan, mode="vectorized")

    def test_mode_is_not_a_counter(self):
        """``mode`` must never perturb metrics equality or merging."""
        from repro.engine.metrics import ExecutionMetrics

        a, b = ExecutionMetrics(), ExecutionMetrics()
        a.mode, b.mode = "serial", "morsel"
        assert "mode" not in a.as_dict()
        assert a.as_dict() == b.as_dict()

    def test_morsel_registry_counters(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        session = self._session(40_000, metrics=registry)
        plan = self._plan(session)
        session.execute(plan, parallelism=4, mode="morsel")
        flat = dict(registry.flat_snapshot())
        batch_keys = [
            key for key in flat
            if key.startswith("repro_executor_morsel_batches_total")
        ]
        assert batch_keys and all(flat[k] >= 1 for k in batch_keys)
        assert any(
            key.startswith("repro_executor_morsels_total") for key in flat
        )

    def test_morsel_spans_traced(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        session = self._session(40_000, tracer=tracer)
        plan = self._plan(session)
        session.execute(plan, parallelism=4, mode="morsel")
        batch_spans = [
            s for s in tracer.spans if s.name == "execute.morsel_batch"
        ]
        morsel_spans = [s for s in tracer.spans if s.name == "execute.morsel"]
        assert batch_spans
        assert morsel_spans
        (plan_span,) = [s for s in tracer.spans if s.name == "execute.plan"]
        assert plan_span.attributes["mode"] == "morsel"
