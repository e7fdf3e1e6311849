"""Lowering tests: strategy choice, budget fallback, and bit-identity."""

import numpy as np
import pytest

from repro.api import Session
from repro.core.optimizer import OptimizerOptions
from repro.core.plan import naive_plan
from repro.physical.lowering import lower
from repro.physical.plan import (
    HashGroupBy,
    IndexScan,
    PhysicalPlanError,
    Reaggregate,
    Scan,
    SortGroupBy,
)
from repro.workloads import make_sales
from repro.workloads.queries import containment_workload


def fs(*cols):
    return frozenset(cols)


@pytest.fixture
def sales_session() -> Session:
    table = make_sales(4000)
    table.build_dictionaries()
    return Session.for_table(table, statistics="exact")


def sales_queries():
    return [
        fs("product_id", "store_id"),
        fs("city", "state", "store_id"),
        fs("city", "state"),
        fs("state"),
        fs("product_id"),
    ]


def grouping_types(physical):
    return {type(op).__name__ for op in physical.grouping_ops()}


def assert_tables_identical(a, b):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for column in a.column_names:
        np.testing.assert_array_equal(a[column], b[column])


class TestStrategyChoice:
    def test_sales_workload_mixes_hash_and_sort(self, sales_session):
        """The acceptance workload: both regimes chosen by cost."""
        result = sales_session.optimize(sales_queries())
        physical = sales_session.lower(result.plan)
        kinds = grouping_types(physical)
        assert "HashGroupBy" in kinds
        assert "SortGroupBy" in kinds

    def test_small_domain_lowers_to_hash(self, session):
        plan = naive_plan("r", [fs("low")])
        physical = session.lower(plan)
        [group] = physical.grouping_ops()
        assert isinstance(group, HashGroupBy)
        assert group.est_cost > 0
        assert group.est_mem_bytes > 0

    def test_huge_domain_lowers_to_sort(self, session):
        """high x mid x shadow exceeds the hash-domain limit."""
        plan = naive_plan("r", [fs("high", "mid", "shadow")])
        physical = session.lower(plan)
        [group] = physical.grouping_ops()
        assert isinstance(group, SortGroupBy)

    def test_no_estimator_prefers_hash(self, sales_session):
        plan = naive_plan("sales", [fs("city", "state", "store_id")])
        physical = lower(
            plan,
            catalog=sales_session.catalog,
            base_table="sales",
            aggregates=[],
            estimator=None,
        )
        [group] = physical.grouping_ops()
        assert isinstance(group, HashGroupBy)
        assert group.est_cost == 0.0


class TestBudgetFallback:
    def test_tight_budget_demotes_hash_to_sort(self, session):
        plan = naive_plan("r", [fs("low")])
        unbounded = session.lower(plan)
        [group] = unbounded.grouping_ops()
        assert isinstance(group, HashGroupBy)
        budget = group.est_mem_bytes - 1.0
        demoted = session.lower(plan, memory_budget_bytes=budget)
        [group] = demoted.grouping_ops()
        # Either the sort state fits (plain sort) or it partitioned too.
        assert isinstance(group, SortGroupBy)

    def test_tiny_budget_partitions(self, session):
        plan = naive_plan("r", [fs("mid")])
        physical = session.lower(plan, memory_budget_bytes=2048.0)
        [group] = physical.grouping_ops()
        assert group.partitions > 1
        assert group.est_mem_bytes <= 2048.0

    def test_budget_runs_bit_identical(self, session):
        queries = [fs("mid"), fs("low"), fs("mid", "low")]
        result = session.optimize(queries)
        free = session.execute(result.plan)
        tight = session.execute(result.plan, memory_budget_bytes=1024.0)
        assert set(free.results) == set(tight.results)
        for query in free.results:
            assert_tables_identical(free.results[query], tight.results[query])

    def test_budget_recorded_on_plan(self, session):
        plan = naive_plan("r", [fs("low")])
        physical = session.lower(plan, memory_budget_bytes=9999.0)
        assert physical.memory_budget_bytes == 9999.0


class TestStructure:
    def test_materialize_and_drop_for_intermediates(self, session):
        queries = containment_workload(["low", "mid", "txt"])
        result = session.optimize(queries)
        physical = session.lower(result.plan)
        labels = [p.kind for p in physical.pipelines]
        if any(isinstance(op, Reaggregate) for op in physical.operators):
            assert "drop" in labels

    def test_serial_plan_has_no_waves(self, session):
        physical = session.lower(naive_plan("r", [fs("low")]))
        assert physical.waves is None

    def test_parallel_plan_builds_waves(self, session):
        queries = [fs("mid"), fs("low"), fs("mid", "low")]
        result = session.optimize(queries)
        physical = session.lower(result.plan, parallelism=2, mode="wavefront")
        assert physical.waves is not None
        assert len(physical.waves) >= 1
        covered = [
            p for wave in physical.waves for p in wave.pipelines + wave.drops
        ]
        assert sorted(covered) == list(range(len(physical.pipelines)))

    def test_parallel_with_steps_rejected(self, session):
        plan = naive_plan("r", [fs("low")])
        with pytest.raises(PhysicalPlanError, match="schedules itself"):
            lower(
                plan,
                catalog=session.catalog,
                base_table="r",
                aggregates=[],
                estimator=session.estimator,
                steps=[],
                mode="wavefront",
            )

    def test_index_prefix_lowers_to_ordered_sort(self, session):
        session.create_index(("low", "mid"))
        physical = session.lower(naive_plan("r", [fs("low")]))
        scan = physical.op(0)
        assert isinstance(scan, IndexScan)
        assert scan.sorted_prefix
        [group] = physical.grouping_ops()
        assert isinstance(group, SortGroupBy)
        assert group.input_sorted

    def test_scan_estimates_populated(self, session):
        physical = session.lower(naive_plan("r", [fs("low")]))
        scan = physical.op(0)
        assert isinstance(scan, Scan)
        assert scan.est_rows == 5000.0
        assert scan.est_cost > 0


class TestCubeRollup:
    def test_cube_lowers_to_expand(self, session):
        queries = [fs("low"), fs("txt"), fs("low", "txt")]
        result = session.optimize(
            queries, OptimizerOptions(enable_cube=True)
        )
        physical = session.lower(result.plan)
        if any(p.kind == "cube" for p in physical.pipelines):
            names = [op.op_name for op in physical.operators]
            assert "cube_expand" in names

    def test_rollup_lowers_to_expand(self, session):
        queries = [fs("low"), fs("low", "mid"), fs("low", "mid", "txt")]
        result = session.optimize(
            queries, OptimizerOptions(enable_rollup=True)
        )
        physical = session.lower(result.plan)
        if any(p.kind == "rollup" for p in physical.pipelines):
            names = [op.op_name for op in physical.operators]
            assert "rollup_expand" in names


class TestBitIdentity:
    def test_every_schedule_and_mode_agree(self, sales_session):
        """Lowered plans agree across serial, parallel, and budgeted."""
        result = sales_session.optimize(sales_queries())
        serial = sales_session.execute(result.plan)
        depth = sales_session.execute(result.plan, schedule="depth_first")
        par = sales_session.execute(result.plan, parallelism=4)
        tight = sales_session.execute(
            result.plan, memory_budget_bytes=64 * 1024.0
        )
        for other in (depth, par, tight):
            assert set(other.results) == set(serial.results)
            for query in serial.results:
                assert_tables_identical(
                    serial.results[query], other.results[query]
                )
        assert par.metrics.as_dict() == serial.metrics.as_dict()
