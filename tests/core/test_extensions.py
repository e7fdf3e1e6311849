"""Unit tests for the multi-aggregate extension (Section 7.2)."""

import pytest

from repro.core.extensions import (
    AggregateQuery,
    aggregates_by_columns,
    aggregate_width,
    choose_merge_strategy,
    queries_to_column_sets,
    union_aggregates,
)
from repro.engine.aggregation import AggregateSpec
from tests.core.support import FakeEstimator


def fs(*cols):
    return frozenset(cols)


def q(cols, *specs):
    return AggregateQuery(fs(*cols), tuple(specs))


COUNT = AggregateSpec.count_star()
SUM_X = AggregateSpec("sum", "x", "sum_x")
MIN_Y = AggregateSpec("min", "y", "min_y")


class TestUnionAggregates:
    def test_dedupe_by_func_and_column(self):
        merged = union_aggregates([COUNT, SUM_X], [SUM_X, MIN_Y])
        assert len(merged) == 3

    def test_order_preserved(self):
        merged = union_aggregates([SUM_X], [COUNT])
        assert merged[0] == SUM_X


class TestStrategyChoice:
    def test_union_wins_when_scan_dominates(self):
        # Huge base, tiny result: re-scanning the base twice (split) is
        # far worse than one wider node.
        estimator = FakeEstimator(1_000_000, {"a": 10, "b": 10})
        strategy = choose_merge_strategy(
            q(["a"], COUNT, SUM_X), q(["b"], MIN_Y), estimator
        )
        assert strategy.kind == "union"
        assert strategy.union_cost < strategy.split_cost

    def test_split_wins_when_result_dominates(self):
        # Result nearly as large as the (small) base and each side has
        # many aggregates: the wide unioned node is re-read by both
        # children, so two narrow copies win.
        many_1 = [AggregateSpec("sum", f"x{i}", f"sx{i}") for i in range(40)]
        many_2 = [AggregateSpec("min", f"y{i}", f"my{i}") for i in range(40)]
        estimator = FakeEstimator(
            1_000, {"a": 900, "b": 1}, {fs("a", "b"): 900.0}
        )
        strategy = choose_merge_strategy(
            q(["a"], *many_1), q(["b"], *many_2), estimator
        )
        assert strategy.kind == "split"

    def test_chosen_cost_is_min(self):
        estimator = FakeEstimator(10_000, {"a": 5, "b": 5})
        strategy = choose_merge_strategy(q(["a"], COUNT), q(["b"], COUNT), estimator)
        assert strategy.chosen_cost == min(
            strategy.union_cost, strategy.split_cost
        )


class TestHelpers:
    def test_aggregate_width(self):
        assert aggregate_width([COUNT, SUM_X]) == 16

    def test_width_counts_state_columns(self):
        """AVG stores SUM and COUNT(col); SUM(x) shares its SUM."""
        avg_x = AggregateSpec("avg", "x", "mean_x")
        assert aggregate_width([avg_x]) == 16
        assert aggregate_width(union_aggregates([avg_x], [SUM_X])) == 16

    def test_queries_to_column_sets(self):
        queries = [q(["a"], COUNT), q(["b"], SUM_X)]
        assert queries_to_column_sets(queries) == [fs("a"), fs("b")]

    def test_aggregates_by_columns_unions_clashes(self):
        queries = [q(["a"], COUNT), q(["a"], SUM_X)]
        table = aggregates_by_columns(queries)
        assert len(table[fs("a")]) == 2

    def test_count_star_constructor(self):
        query = AggregateQuery.count_star(fs("a"))
        assert query.aggregates[0].func == "count"
