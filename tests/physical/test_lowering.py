"""Lowering tests: strategy choice, budget fallback, and bit-identity."""

import numpy as np
import pytest

from repro.api import Session
from repro.core.optimizer import OptimizerOptions
from repro.core.plan import naive_plan
from repro.engine.executor import PlanExecutor
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


def depth_first_executor(session, **kwargs):
    """An executor over the session's table without the session's
    Section 4.4.1 order: its lowering follows depth-first order."""
    return PlanExecutor(
        session.catalog,
        session.base_table,
        estimator=session.estimator,
        **kwargs,
    )


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

    def test_serial_plan_has_one_compute_per_wave(self, session):
        queries = containment_workload(["low", "mid", "txt"])
        plan = session.optimize(queries).plan
        storage = session.lower(plan, mode="serial")
        depth_first = depth_first_executor(session, mode="serial").lower(plan)
        for physical in (storage, depth_first):
            assert all(len(wave.pipelines) == 1 for wave in physical.waves)
            # The waves replay the linear schedule: computes in order,
            # each drop right after the compute it follows.
            order = [
                index
                for wave in physical.waves
                for index in wave.pipelines + wave.drops
            ]
            assert order == list(range(len(physical.pipelines)))
            assert len(physical.waves) == len(physical.compute_pipelines())

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

    def test_parallel_pipelines_follow_the_steps(self, session):
        """Every mode lowers the caller's one linear schedule; a
        parallel plan's waves are its depth ranks over those pipelines."""
        queries = containment_workload(["low", "mid", "txt"])
        plan = session.optimize(queries).plan
        serial = session.lower(plan, mode="serial")
        parallel = session.lower(plan, parallelism=2, mode="wavefront")
        assert [p.label for p in parallel.pipelines] == [
            p.label for p in serial.pipelines
        ]
        for wave in parallel.waves:
            depths = {parallel.pipelines[i].depth for i in wave.pipelines}
            assert depths == {wave.index}
            for index in wave.drops:
                assert parallel.pipelines[index].depth == wave.index - 1

    def test_parallel_with_steps_rejected(self, session):
        """A parallel lowering maps the plan's depth ranks onto the
        pipelines the steps lowered, so steps that skip a node of the
        plan are rejected."""
        plan = naive_plan("r", [fs("low")])
        with pytest.raises(PhysicalPlanError, match="no compute step"):
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


class TestModeDecision:
    """``lower`` decides how the plan runs and says why."""

    BUDGET_REASON = (
        "a memory budget bounds each operator, and concurrent operators "
        "could each fill it"
    )
    WAVES_REASON = "no memory budget: the depth-rank waves"

    @pytest.fixture(scope="class")
    def sampled(self):
        session = Session.for_table(make_sales(4000), statistics="sampled")
        return session, session.optimize(sales_queries()).plan

    def test_forced_mode_says_forced(self, session):
        plan = naive_plan("r", [fs("low"), fs("mid")])
        for mode in ("serial", "wavefront", "morsel"):
            physical = session.lower(plan, parallelism=2, mode=mode)
            assert (physical.mode, physical.mode_reason) == (mode, "forced")

    @pytest.mark.parametrize(
        "statistics", ["sampled", None], ids=["sampled", "no-stats"]
    )
    @pytest.mark.parametrize(
        "budget", [None, 64 * 1024.0], ids=["no-budget", "budget"]
    )
    @pytest.mark.parametrize("parallelism", [1, 2], ids=["k1", "k2"])
    def test_auto_rule(self, sampled, parallelism, budget, statistics):
        """A memory budget runs serial; anything else runs the waves,
        whatever the worker count and with or without statistics, and
        gives forced serial's results and metrics."""
        session, plan = sampled
        estimator = session.estimator if statistics else None

        def run(mode):
            return PlanExecutor(
                session.catalog,
                session.base_table,
                estimator=estimator,
                memory_budget_bytes=budget,
                parallelism=parallelism,
                mode=mode,
            ).execute(plan)

        auto, serial = run("auto"), run("serial")
        expected = (
            ("serial", self.BUDGET_REASON)
            if budget is not None
            else ("wavefront", self.WAVES_REASON)
        )
        assert (auto.physical.mode, auto.physical.mode_reason) == expected
        assert auto.metrics.mode == expected[0]
        assert f"mode reason: {expected[1]}" in auto.physical.render()
        assert set(auto.results) == set(serial.results)
        for query in serial.results:
            assert_tables_identical(serial.results[query], auto.results[query])
        assert auto.metrics.as_dict(per_query=True) == (
            serial.metrics.as_dict(per_query=True)
        )


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
        depth = depth_first_executor(sales_session, parallelism=1).execute(
            result.plan
        )
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
