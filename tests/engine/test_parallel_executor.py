"""Parallel wavefront execution: bit-identical to serial, equal metrics.

The acceptance bar for ``PlanExecutor(parallelism>=2)``: on every
built-in workload the parallel run must produce bit-identical result
tables and equal aggregated :class:`ExecutionMetrics` totals versus a
serial run of the same plan.
"""

import threading

import numpy as np
import pytest

from repro.api import Session
from repro.costmodel.engine_model import MORSEL_MIN_ROWS
from repro.core.plan import LogicalPlan, NodeKind, PlanNode, SubPlan
from repro.engine import executor as executor_module, morsel
from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionError, PlanExecutor
from repro.engine.table import Table
from repro.obs.tracer import Tracer
from repro.workloads.customers import make_customers
from repro.workloads.queries import combi_workload
from repro.workloads.sales import make_sales
from repro.workloads.tpch import make_lineitem

WORKLOAD_BUILDERS = {
    "sales": make_sales,
    "lineitem": make_lineitem,
    "customers": make_customers,
}


def fs(*cols):
    return frozenset(cols)


def assert_tables_identical(a, b):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for column in a.column_names:
        np.testing.assert_array_equal(a[column], b[column])


def run_both(maker, queries=None, parallelism=3):
    """Optimize once per fresh session; execute serial and parallel."""
    serial_session = Session.for_table(maker(4_000), statistics="exact")
    parallel_session = Session.for_table(maker(4_000), statistics="exact")
    if queries is None:
        table = serial_session.catalog.get(serial_session.base_table)
        queries = combi_workload(list(table.column_names)[:4], 2)
    serial = serial_session.execute(serial_session.optimize(queries).plan)
    # Forced: at this size ``auto`` resolves to serial, which would
    # compare serial with itself.
    parallel = parallel_session.execute(
        parallel_session.optimize(queries).plan,
        parallelism=parallelism,
        mode="wavefront",
    )
    assert serial.metrics.mode == "serial"
    assert parallel.metrics.mode == "wavefront"
    return serial, parallel


class TestBuiltinWorkloads:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
    def test_results_bit_identical(self, workload):
        serial, parallel = run_both(WORKLOAD_BUILDERS[workload])
        assert set(serial.results) == set(parallel.results)
        for query in serial.results:
            assert_tables_identical(
                serial.results[query], parallel.results[query]
            )

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
    def test_metrics_totals_equal(self, workload):
        serial, parallel = run_both(WORKLOAD_BUILDERS[workload])
        assert serial.metrics.as_dict(per_query=True) == parallel.metrics.as_dict(
            per_query=True
        )


class TestHandBuiltPlans:
    def fixture_executors(self, random_table, parallelism):
        serial_cat, parallel_cat = Catalog(), Catalog()
        serial_cat.add_table(random_table)
        parallel_cat.add_table(random_table.rename("r"))
        return (
            PlanExecutor(serial_cat, "r"),
            PlanExecutor(
                parallel_cat, "r", parallelism=parallelism, mode="wavefront"
            ),
        )

    def deep_plan(self):
        lowmid = SubPlan(
            PlanNode(fs("low", "mid")),
            (
                SubPlan.leaf(fs("low")),
                SubPlan.leaf(fs("mid")),
            ),
            required=False,
        )
        return LogicalPlan(
            "r",
            (lowmid, SubPlan.leaf(fs("txt"))),
            frozenset([fs("low"), fs("mid"), fs("txt")]),
        )

    def test_deep_plan_identical(self, random_table):
        serial, parallel = self.fixture_executors(random_table, 4)
        a = serial.execute(self.deep_plan())
        b = parallel.execute(self.deep_plan())
        assert set(a.results) == set(b.results)
        for query in a.results:
            assert_tables_identical(a.results[query], b.results[query])
        assert a.metrics.as_dict(per_query=True) == b.metrics.as_dict(
            per_query=True
        )
        assert a.peak_temp_bytes == b.peak_temp_bytes

    def cube_plan(self):
        node = PlanNode(fs("low", "mid"), NodeKind.CUBE)
        answers = frozenset([fs("low", "mid"), fs("low"), fs("mid")])
        root = SubPlan(node, (), required=False, direct_answers=answers)
        return LogicalPlan("r", (root,), answers)

    def test_cube_plan_identical(self, random_table):
        serial, parallel = self.fixture_executors(random_table, 2)
        a = serial.execute(self.cube_plan())
        b = parallel.execute(self.cube_plan())
        for query in a.results:
            assert_tables_identical(a.results[query], b.results[query])
        assert a.metrics.as_dict() == b.metrics.as_dict()

    def test_cube_expand_opens_no_pool_inside_a_plan(self, monkeypatch):
        """A CUBE top above the load floor, answered on a wave worker:
        no ``Workers`` pool may open on a thread already inside
        ``Workers.map`` (that would exceed ``usable_cpus()``)."""
        inside = threading.local()

        class GuardedWorkers(morsel.Workers):
            def __init__(self, parallelism, name):
                assert not getattr(inside, "depth", 0), (
                    f"pool {name!r} opened inside a running Workers.map"
                )
                super().__init__(parallelism, name)

            def map(self, task, count):
                def marked(index):
                    inside.depth = getattr(inside, "depth", 0) + 1
                    try:
                        return task(index)
                    finally:
                        inside.depth -= 1

                return super().map(marked, count)

        monkeypatch.setattr(morsel, "usable_cpus", lambda: 2)
        monkeypatch.setattr(morsel, "Workers", GuardedWorkers)
        monkeypatch.setattr(executor_module, "Workers", GuardedWorkers)
        n = MORSEL_MIN_ROWS + 1_000
        rows = np.arange(n)
        # Every (low, mid) pair is distinct, so the CUBE top keeps all
        # n rows and carries two aggregate columns to encode.
        table = Table("r", {"low": rows % 300, "mid": rows // 300, "v": rows})
        catalog = Catalog()
        catalog.add_table(table)
        aggregates = [AggregateSpec.count_star(), AggregateSpec.sum_of("v")]
        run = PlanExecutor(
            catalog, "r", aggregates=aggregates, parallelism=2,
            mode="wavefront",
        ).execute(self.cube_plan())
        assert run.metrics.mode == "wavefront"
        assert run.results[fs("low", "mid")].num_rows == n
        assert run.results[fs("low")]["cnt"].sum() == n

    def rollup_plan(self):
        node = PlanNode(fs("low", "mid"), NodeKind.ROLLUP, ("low", "mid"))
        answers = frozenset([fs("low", "mid"), fs("low")])
        root = SubPlan(node, (), required=False, direct_answers=answers)
        return LogicalPlan("r", (root,), answers)

    def test_rollup_plan_identical(self, random_table):
        serial, parallel = self.fixture_executors(random_table, 2)
        a = serial.execute(self.rollup_plan())
        b = parallel.execute(self.rollup_plan())
        for query in a.results:
            assert_tables_identical(a.results[query], b.results[query])
        assert a.metrics.as_dict() == b.metrics.as_dict()

    def test_index_path_identical(self, random_table):
        from repro.engine.indexes import IndexSpec

        serial, parallel = self.fixture_executors(random_table, 2)
        for executor in (serial, parallel):
            executor._catalog.create_index(
                "r", IndexSpec("ix_low", ("low",))
            )
        plan = self.deep_plan()
        a = serial.execute(plan)
        b = parallel.execute(plan)
        for query in a.results:
            assert_tables_identical(a.results[query], b.results[query])
        assert a.metrics.index_scans == b.metrics.index_scans


class TestParallelContract:
    def test_parallelism_below_one_rejected(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        with pytest.raises(ExecutionError):
            PlanExecutor(catalog, "r", parallelism=0)

    def test_explicit_steps_rejected_in_parallel(self, random_table):
        """Parallel runs lower the caller's steps too, so steps that skip
        a node of the plan are rejected before anything runs."""
        from repro.core.plan import naive_plan
        from repro.core.scheduling import depth_first_schedule

        catalog = Catalog()
        catalog.add_table(random_table)
        executor = PlanExecutor(catalog, "r", parallelism=2, mode="wavefront")
        plan = naive_plan("r", [fs("low"), fs("mid")])
        steps = depth_first_schedule(plan)
        assert len(executor.execute(plan, steps).results) == 2
        with pytest.raises(ExecutionError, match="no compute step"):
            executor.execute(plan, steps[:1])

    def test_temps_cleaned_up(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        executor = PlanExecutor(catalog, "r", parallelism=4)
        plan = TestHandBuiltPlans().deep_plan()
        executor.execute(plan)
        assert catalog.temp_names() == ()
        assert catalog.current_temp_bytes == 0

    def test_wave_spans_traced(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        tracer = Tracer()
        executor = PlanExecutor(
            catalog, "r", parallelism=2, tracer=tracer, mode="wavefront"
        )
        executor.execute(TestHandBuiltPlans().deep_plan())
        wave_spans = [s for s in tracer.spans if s.name == "execute.wave"]
        node_spans = [s for s in tracer.spans if s.name == "execute.node"]
        assert len(wave_spans) == 2  # depth 0 and depth 1
        wave_ids = {s.span_id for s in wave_spans}
        assert all(s.parent_id in wave_ids for s in node_spans)
        (plan_span,) = [s for s in tracer.spans if s.name == "execute.plan"]
        assert plan_span.attributes["parallelism"] == 2

    def test_dictionary_cache_stats_on_plan_span(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        tracer = Tracer()
        executor = PlanExecutor(catalog, "r", tracer=tracer)
        executor.execute(TestHandBuiltPlans().deep_plan())
        (plan_span,) = [s for s in tracer.spans if s.name == "execute.plan"]
        assert plan_span.attributes["dictionary_misses"] >= 1

    def test_shared_cache_reused_across_runs(self, random_table):
        from repro.engine.dictcache import DictionaryCache

        catalog = Catalog()
        catalog.add_table(random_table)
        cache = DictionaryCache()
        executor = PlanExecutor(catalog, "r", dictionary_cache=cache)
        plan = TestHandBuiltPlans().deep_plan()
        executor.execute(plan)
        first_misses = cache.stats()["misses"]
        executor.execute(plan)
        assert cache.stats()["misses"] == first_misses


class TestWavefrontSharedScan:
    """A wave pays one row-store pass per input its groupings share."""

    ROWS = 40_000

    @staticmethod
    def plan(relation):
        """Wave 0: four groupings read R (one materializes each of two
        temps).  Wave 1: two groupings share ``tmp__channel__region``;
        one reads ``tmp__payment_type__promo_flag`` alone."""
        shared_parent = SubPlan(
            PlanNode(fs("region", "channel")),
            (SubPlan.leaf(fs("region")), SubPlan.leaf(fs("channel"))),
            required=False,
        )
        lone_parent = SubPlan(
            PlanNode(fs("payment_type", "promo_flag")),
            (SubPlan.leaf(fs("payment_type")),),
            required=False,
        )
        leaves = ("region", "channel", "category", "brand", "payment_type")
        return LogicalPlan(
            relation,
            (
                shared_parent,
                SubPlan.leaf(fs("category")),
                SubPlan.leaf(fs("brand")),
                lone_parent,
            ),
            frozenset(fs(column) for column in leaves),
        )

    @staticmethod
    def spy_reads(monkeypatch, fail_on=None):
        """Record every ``touch_range`` as (table, rows read, table rows)
        and every full ``touch`` by table; raise inside reads of
        ``fail_on``."""
        reads, touches = [], []
        lock = threading.Lock()
        touch_range, touch = Table.touch_range, Table.touch

        def spy_touch_range(self, start, stop, columns=None):
            if self.name == fail_on:
                raise RuntimeError(f"injected read failure on {fail_on}")
            with lock:
                reads.append((self.name, stop - start, self.num_rows))
            return touch_range(self, start, stop, columns)

        def spy_touch(self, columns=None):
            with lock:
                touches.append(self.name)
            return touch(self, columns)

        monkeypatch.setattr(Table, "touch_range", spy_touch_range)
        monkeypatch.setattr(Table, "touch", spy_touch)
        return reads, touches

    def run(self, parallelism, mode, tracer=None):
        session = Session.for_table(
            make_sales(self.ROWS, seed=0), statistics="exact"
        )
        result = session.execute(
            self.plan(session.base_table),
            parallelism=parallelism,
            mode=mode,
            tracer=tracer,
        )
        return session, result

    def test_each_shared_input_read_once_per_wave(self, monkeypatch):
        reads, touches = self.spy_reads(monkeypatch)
        tracer = Tracer()
        session, result = self.run(2, "wavefront", tracer)
        assert result.metrics.mode == "wavefront"
        rows_read: dict[str, int] = {}
        table_rows: dict[str, int] = {}
        for name, rows, num_rows in reads:
            rows_read[name] = rows_read.get(name, 0) + rows
            table_rows[name] = num_rows
        base = session.base_table
        lone = "tmp__payment_type__promo_flag"
        assert set(rows_read) == {base, "tmp__channel__region", lone}
        # One pass each: R and the shared temp by their wave's shared
        # scan, the single-reader temp by its own grouping.
        assert rows_read == table_rows
        assert touches == [lone]
        scans = [s for s in tracer.spans if s.name == "execute.shared_scan"]
        assert sorted(
            (s.attributes["source"], s.attributes["readers"]) for s in scans
        ) == [(base, 4), ("tmp__channel__region", 2)]
        waves = {s.span_id for s in tracer.spans if s.name == "execute.wave"}
        assert all(s.parent_id in waves for s in scans)
        base_bytes = session.catalog.get(base).scan_bytes()
        assert [
            s.attributes["bytes"]
            for s in scans
            if s.attributes["source"] == base
        ] == [base_bytes]

    def test_metrics_and_results_match_serial(self):
        _, serial = self.run(1, "serial")
        _, wavefront = self.run(2, "wavefront")
        assert serial.metrics.as_dict(
            per_query=True
        ) == wavefront.metrics.as_dict(per_query=True)
        assert set(serial.results) == set(wavefront.results)
        for query in serial.results:
            assert_tables_identical(
                serial.results[query], wavefront.results[query]
            )

    def test_failed_shared_pass_leaves_no_temps(self, monkeypatch):
        self.spy_reads(monkeypatch, fail_on="tmp__channel__region")
        session = Session.for_table(
            make_sales(self.ROWS, seed=0), statistics="exact"
        )
        before = session.catalog.current_temp_bytes
        with pytest.raises(RuntimeError, match="injected read failure"):
            session.execute(
                self.plan(session.base_table), parallelism=2, mode="wavefront"
            )
        assert session.catalog.current_temp_bytes == before
        assert not [
            name
            for name in session.catalog.temp_names()
            if name.startswith("tmp__")
        ]


class TestForcedMorselWaves:
    """Forced ``morsel`` runs the wavefront loop: a wave's shared pass
    over an input with two or more feasible readers is a morsel batch,
    and every other reader of that input runs on the pass it paid."""

    ROWS = 40_000
    #: 5,000 products x 5,000 customers: far past the two-phase cap of
    #: max(65,536, 2 x rows) composite slots.
    NEAR_UNIQUE = fs("product_id", "customer_id")

    def plan(self, relation):
        """:meth:`TestWavefrontSharedScan.plan` plus a near-unique
        grouping in wave 0, beside the two that materialize temps."""
        base = TestWavefrontSharedScan.plan(relation)
        return LogicalPlan(
            relation,
            base.subplans + (SubPlan.leaf(self.NEAR_UNIQUE),),
            base.required | {self.NEAR_UNIQUE},
        )

    def run(self, parallelism, mode, **kwargs):
        session = Session.for_table(
            make_sales(self.ROWS, seed=0), statistics="exact", **kwargs
        )
        result = session.execute(
            self.plan(session.base_table),
            parallelism=parallelism,
            mode=mode,
        )
        return session, result

    def test_one_read_per_wave_and_input(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        reads, touches = TestWavefrontSharedScan.spy_reads(monkeypatch)
        tracer, registry = Tracer(), MetricsRegistry()
        session, result = self.run(
            2, "morsel", tracer=tracer, metrics=registry
        )
        assert result.metrics.mode == "morsel"
        rows_read: dict[str, int] = {}
        table_rows: dict[str, int] = {}
        for name, rows, num_rows in reads:
            rows_read[name] = rows_read.get(name, 0) + rows
            table_rows[name] = num_rows
        base = session.base_table
        lone = "tmp__payment_type__promo_flag"
        # One pass each: R and the shared temp by their wave's morsel
        # batch — the near-unique reader of R included — and the
        # single-reader temp by its own grouping.
        assert rows_read == table_rows
        assert set(rows_read) == {base, "tmp__channel__region", lone}
        assert touches == [lone]
        batches = [
            s for s in tracer.spans if s.name == "execute.morsel_batch"
        ]
        assert sorted(
            (
                s.attributes["source"],
                s.attributes["groupings"],
                s.attributes["single_pass"],
            )
            for s in batches
        ) == [(base, 5, 1), ("tmp__channel__region", 2, 0)]
        assert not [
            s for s in tracer.spans if s.name == "execute.shared_scan"
        ]
        # The near-unique reader ran its own kernel, not a merge.
        regimes = {
            s.attributes["op_id"]: s.attributes["regime"]
            for s in tracer.spans
            if "regime" in s.attributes
        }
        physical = session.lower(
            self.plan(base), parallelism=2, mode="morsel"
        )
        (near_unique,) = [
            op for op in physical.grouping_ops()
            if frozenset(op.keys) == self.NEAR_UNIQUE
        ]
        assert regimes[near_unique.op_id] != "morsel"
        assert list(regimes.values()).count("morsel") == 6
        assert registry.value(
            "repro_executor_morsel_batches_total", relation=base
        ) == 2

    def test_matches_serial(self):
        _, serial = self.run(1, "serial")
        _, morsel_run = self.run(2, "morsel")
        assert set(serial.results) == set(morsel_run.results)
        for query in serial.results:
            assert_tables_identical(
                serial.results[query], morsel_run.results[query]
            )
        assert serial.metrics.as_dict(
            per_query=True
        ) == morsel_run.metrics.as_dict(per_query=True)

    def test_failed_partial_leaves_no_temps(self, monkeypatch):
        partial = morsel.MorselGrouping.partial

        def failing_partial(self, start, stop):
            # Wave 1 reads a temp materialized in wave 0.
            if self.table.name.startswith("tmp__"):
                raise RuntimeError("injected partial failure")
            return partial(self, start, stop)

        monkeypatch.setattr(morsel.MorselGrouping, "partial", failing_partial)
        session = Session.for_table(
            make_sales(self.ROWS, seed=0), statistics="exact"
        )
        before = session.catalog.current_temp_bytes
        with pytest.raises(RuntimeError, match="injected partial failure"):
            session.execute(
                self.plan(session.base_table), parallelism=2, mode="morsel"
            )
        assert session.catalog.current_temp_bytes == before
        assert not [
            name
            for name in session.catalog.temp_names()
            if name.startswith("tmp__")
        ]


@pytest.mark.parametrize("mode", ["serial", "wavefront", "morsel"])
def test_steps_count_compute_pipelines_in_every_mode(mode):
    """``execute.plan``'s ``steps`` leaves out the DROP pipelines."""
    session = Session.for_table(
        make_sales(40_000, seed=0), statistics="exact"
    )
    table = session.catalog.get(session.base_table)
    queries = combi_workload(list(table.column_names)[:5], 2)
    plan = session.optimize(queries).plan
    tracer = Tracer()
    session.execute(plan, parallelism=2, mode=mode, tracer=tracer)
    (plan_span,) = [s for s in tracer.spans if s.name == "execute.plan"]
    # Every node of the plan is one compute pipeline.
    assert plan_span.attributes["steps"] == plan.node_count()
