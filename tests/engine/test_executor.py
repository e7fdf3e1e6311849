"""Unit tests for the plan executor (Section 5.2 semantics)."""

import pytest

from repro.core.plan import LogicalPlan, NodeKind, PlanNode, SubPlan, naive_plan
from repro.core.scheduling import depth_first_schedule
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionError, PlanExecutor, temp_name_for
from repro.engine.indexes import IndexSpec
from tests.conftest import brute_force_group_by, result_as_dict


def fs(*cols):
    return frozenset(cols)


@pytest.fixture
def catalog(random_table):
    cat = Catalog()
    cat.add_table(random_table)
    return cat


@pytest.fixture
def executor(catalog):
    return PlanExecutor(catalog, "r", parallelism=1)


def hand_plan(required=("low", "mid")):
    """(low,mid) materialized; (low) and (mid) computed from it."""
    children = tuple(SubPlan.leaf(fs(c)) for c in required)
    root = SubPlan(PlanNode(fs(*required)), children, required=False)
    return LogicalPlan("r", (root,), frozenset(fs(c) for c in required))


class TestExecution:
    def test_naive_plan_results(self, executor, random_table):
        plan = naive_plan("r", [fs("low"), fs("mid")])
        result = executor.execute(plan)
        for column in ("low", "mid"):
            assert result_as_dict(
                result.results[fs(column)], [column]
            ) == brute_force_group_by(random_table, [column])

    def test_merged_plan_equals_naive(self, executor, random_table):
        result = executor.execute(hand_plan())
        for column in ("low", "mid"):
            assert result_as_dict(
                result.results[fs(column)], [column]
            ) == brute_force_group_by(random_table, [column])

    def test_temp_tables_cleaned_up(self, executor, catalog):
        executor.execute(hand_plan())
        assert catalog.temp_names() == ()
        assert catalog.current_temp_bytes == 0

    def test_peak_temp_recorded(self, executor, catalog):
        result = executor.execute(hand_plan())
        assert result.peak_temp_bytes > 0

    def test_required_intermediate_captured(self, executor, random_table):
        # (low, mid) is itself required AND parents (low).
        child = SubPlan.leaf(fs("low"))
        root = SubPlan(PlanNode(fs("low", "mid")), (child,), required=True)
        plan = LogicalPlan("r", (root,), frozenset([fs("low"), fs("low", "mid")]))
        result = executor.execute(plan)
        assert result_as_dict(
            result.results[fs("low", "mid")], ["low", "mid"]
        ) == brute_force_group_by(random_table, ["low", "mid"])

    def test_wrong_relation_rejected(self, executor):
        plan = naive_plan("other", [fs("low")])
        with pytest.raises(ExecutionError):
            executor.execute(plan)

    def test_metrics_queries_counted(self, executor):
        result = executor.execute(hand_plan())
        assert result.metrics.queries_executed == 3

    def test_deeper_tree(self, executor, random_table):
        # r -> (low,mid,corr) -> (mid,corr) -> (mid), (corr); plus (low).
        inner = SubPlan(
            PlanNode(fs("mid", "corr")),
            (SubPlan.leaf(fs("mid")), SubPlan.leaf(fs("corr"))),
        )
        root = SubPlan(
            PlanNode(fs("low", "mid", "corr")),
            (inner, SubPlan.leaf(fs("low"))),
        )
        plan = LogicalPlan(
            "r", (root,), frozenset([fs("mid"), fs("corr"), fs("low")])
        )
        result = executor.execute(plan)
        for column in ("mid", "corr", "low"):
            assert result_as_dict(
                result.results[fs(column)], [column]
            ) == brute_force_group_by(random_table, [column])


class TestIndexPath:
    def test_index_used_when_narrower(self, catalog, random_table):
        catalog.create_index("r", IndexSpec("ix_low", ("low",)))
        executor = PlanExecutor(catalog, "r")
        plan = naive_plan("r", [fs("low")])
        result = executor.execute(plan)
        assert result.metrics.index_scans == 1
        assert result_as_dict(
            result.results[fs("low")], ["low"]
        ) == brute_force_group_by(random_table, ["low"])

    def test_index_disabled(self, catalog):
        catalog.create_index("r", IndexSpec("ix_low", ("low",)))
        executor = PlanExecutor(catalog, "r", use_indexes=False)
        result = executor.execute(naive_plan("r", [fs("low")]))
        assert result.metrics.index_scans == 0


class TestCubeRollupNodes:
    def test_cube_node(self, executor, random_table):
        answers = frozenset([fs("low"), fs("mid"), fs("low", "mid")])
        node = SubPlan(
            PlanNode(fs("low", "mid"), NodeKind.CUBE),
            (),
            direct_answers=answers,
        )
        plan = LogicalPlan("r", (node,), answers)
        result = executor.execute(plan)
        for query in answers:
            keys = sorted(query)
            assert result_as_dict(
                result.results[query], keys
            ) == brute_force_group_by(random_table, keys)

    def test_rollup_node(self, executor, random_table):
        answers = frozenset([fs("low"), fs("low", "mid")])
        node = SubPlan(
            PlanNode(
                fs("low", "mid"), NodeKind.ROLLUP, ("low", "mid")
            ),
            (),
            direct_answers=answers,
        )
        plan = LogicalPlan("r", (node,), answers)
        result = executor.execute(plan)
        for query in answers:
            keys = sorted(query)
            assert result_as_dict(
                result.results[query], keys
            ) == brute_force_group_by(random_table, keys)


class TestSchedules:
    def test_explicit_schedule(self, executor):
        plan = hand_plan()
        steps = depth_first_schedule(plan)
        result = executor.execute(plan, steps)
        assert len(result.results) == 2

    def test_child_before_parent_rejected(self, executor):
        plan = hand_plan()
        steps = depth_first_schedule(plan)
        # Reorder: run a child before its parent is materialized.
        bad = [steps[1], steps[0]] + steps[2:]
        with pytest.raises(ExecutionError):
            executor.execute(plan, bad)
        # Cleanup must have removed any stray temps.
        assert executor._catalog.temp_names() == ()


def test_temp_name_deterministic():
    node = PlanNode(fs("b", "a"))
    assert temp_name_for(node) == "tmp__a__b"
