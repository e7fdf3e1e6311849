"""Unit tests for the integrated GROUPING SETS planner (Section 5.1)."""

import pytest

from repro.core.gs_planner import plan_grouping_sets
from repro.core.rewrites import (
    GRP_TAG,
    GroupingSetsExpr,
    JoinExpr,
    RelationExpr,
    RewriteError,
    SelectExpr,
    push_grouping_below_join,
)
from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.expressions import Predicate
from repro.engine.table import Table
from repro.stats.cardinality import ExactCardinalityEstimator


@pytest.fixture
def catalog(random_table):
    cat = Catalog()
    cat.add_table(random_table)
    cat.add_table(
        Table(
            "dim",
            {
                "key": list(range(60)),
                "bucket": [i % 4 for i in range(60)],
            },
        )
    )
    return cat


def normalized(table):
    return sorted(map(tuple, table.to_rows()))


class TestDirect:
    def test_matches_unoptimized_evaluation(self, catalog, random_table):
        expr = GroupingSetsExpr(
            RelationExpr("r"), (("low",), ("mid",), ("low", "mid"))
        )
        planned = plan_grouping_sets(
            expr, catalog, ExactCardinalityEstimator(random_table)
        )
        assert planned.strategy == "direct"
        reference = expr.evaluate(catalog)
        assert normalized(planned.table) == normalized(reference)

    def test_optimization_reported(self, catalog, random_table):
        expr = GroupingSetsExpr(RelationExpr("r"), (("low",), ("mid",)))
        planned = plan_grouping_sets(
            expr, catalog, ExactCardinalityEstimator(random_table)
        )
        assert planned.optimization.plan.answered_queries() == {
            frozenset(["low"]),
            frozenset(["mid"]),
        }

    def test_count_column_rejected(self, catalog):
        expr = GroupingSetsExpr(
            RelationExpr("r"), (("low",),), count_column="cnt"
        )
        with pytest.raises(RewriteError):
            plan_grouping_sets(expr, catalog)


class TestJoinPushdown:
    def _expr(self):
        join = JoinExpr(
            RelationExpr("r"), RelationExpr("dim"), (("mid", "key"),)
        )
        return GroupingSetsExpr(join, (("low",), ("corr",), ("low", "corr")))

    def test_matches_unoptimized_evaluation(self, catalog, random_table):
        expr = self._expr()
        planned = plan_grouping_sets(
            expr, catalog, ExactCardinalityEstimator(random_table)
        )
        assert planned.strategy == "join_pushdown"
        reference = expr.evaluate(catalog)
        got = {}
        want = {}
        for grouping in (("low",), ("corr",), ("low", "corr")):
            tag = ",".join(sorted(grouping))
            got[grouping] = normalized(
                planned.table.take(planned.table[GRP_TAG] == tag).project(
                    list(grouping) + ["cnt"]
                )
            )
            want[grouping] = normalized(
                reference.take(reference[GRP_TAG] == tag).project(
                    list(grouping) + ["cnt"]
                )
            )
        assert got == want

    @pytest.mark.parametrize(
        "aggregates",
        [
            (AggregateSpec("avg", "high", "mean"),),
            (AggregateSpec.count_star(), AggregateSpec.sum_of("high")),
        ],
    )
    def test_count_star_only(self, catalog, aggregates):
        """The Figure 8 rewrite sums partial counts: any other aggregate
        list is refused, by the planner and by the rewrite alike."""
        expr = GroupingSetsExpr(
            self._expr().child, (("low",),), aggregates=aggregates
        )
        with pytest.raises(RewriteError, match="COUNT"):
            plan_grouping_sets(expr, catalog)
        with pytest.raises(RewriteError, match="COUNT"):
            push_grouping_below_join(expr)

    def test_pushed_sets_are_optimized_together(self, catalog, random_table):
        planned = plan_grouping_sets(
            self._expr(), catalog, ExactCardinalityEstimator(random_table)
        )
        answered = planned.optimization.plan.answered_queries()
        # Each pushed set carries the join column.
        assert frozenset(["low", "mid"]) in answered
        assert frozenset(["corr", "mid"]) in answered

    def test_grouping_column_must_come_from_left(self, catalog):
        join = JoinExpr(
            RelationExpr("r"), RelationExpr("dim"), (("mid", "key"),)
        )
        expr = GroupingSetsExpr(join, (("bucket",),))
        with pytest.raises(RewriteError):
            plan_grouping_sets(expr, catalog)

    def test_multi_key_rejected(self, catalog):
        join = JoinExpr(
            RelationExpr("r"),
            RelationExpr("dim"),
            (("mid", "key"), ("low", "bucket")),
        )
        expr = GroupingSetsExpr(join, (("low",),))
        with pytest.raises(RewriteError):
            plan_grouping_sets(expr, catalog)


class TestSelectionPushdown:
    def test_matches_unoptimized_evaluation(self, catalog):
        expr = GroupingSetsExpr(
            SelectExpr(RelationExpr("r"), (Predicate("low", ">", 1),)),
            (("mid",), ("corr",), ("mid", "corr")),
        )
        planned = plan_grouping_sets(expr, catalog)
        assert planned.strategy == "selection_pushdown"
        reference = expr.evaluate(catalog)
        assert normalized(planned.table) == normalized(reference)

    def test_selection_over_join_rejected(self, catalog):
        join = JoinExpr(
            RelationExpr("r"), RelationExpr("dim"), (("mid", "key"),)
        )
        expr = GroupingSetsExpr(
            SelectExpr(join, (Predicate("low", "==", 1),)), (("low",),)
        )
        with pytest.raises(RewriteError):
            plan_grouping_sets(expr, catalog)
