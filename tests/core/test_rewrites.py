"""Unit tests for GROUPING SETS logical rewrites (Section 5.1)."""

import pytest

from repro.core.rewrites import (
    GRP_TAG,
    GroupByExpr,
    GroupingSetsExpr,
    JoinExpr,
    RelationExpr,
    RewriteError,
    SelectExpr,
    TagFilterExpr,
    push_grouping_below_join,
    push_selection_below,
)
from repro.engine.catalog import Catalog
from repro.engine.expressions import Predicate
from repro.engine.table import Table
from tests.conftest import brute_force_group_by


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table(
        Table(
            "orders",
            {
                "cust": [1, 1, 2, 2, 3, 3, 3, 4],
                "region": ["e", "e", "w", "w", "e", "e", "w", "w"],
                "status": ["o", "f", "o", "f", "o", "o", "f", "o"],
            },
        )
    )
    cat.add_table(
        Table(
            "customers",
            {"cust_id": [1, 2, 3, 4, 5], "tier": ["g", "s", "g", "b", "s"]},
        )
    )
    return cat


def gs_rows(table, grouping):
    """Extract one grouping's rows from a GROUPING SETS result."""
    tag = ",".join(sorted(grouping)).encode()
    mask = table[GRP_TAG] == tag
    selected = table.take(mask)
    return {
        tuple(selected[c][i].item() for c in sorted(grouping)): int(
            selected["cnt"][i]
        )
        for i in range(selected.num_rows)
    }


class TestGroupingSetsExpr:
    def test_matches_per_query_group_bys(self, catalog):
        expr = GroupingSetsExpr(
            RelationExpr("orders"), (("region",), ("status",), ("region", "status"))
        )
        result = expr.evaluate(catalog)
        orders = catalog.get("orders")
        for grouping in (("region",), ("status",), ("region", "status")):
            assert gs_rows(result, grouping) == brute_force_group_by(
                orders, sorted(grouping)
            )

    def test_null_padding_for_absent_columns(self, catalog):
        expr = GroupingSetsExpr(
            RelationExpr("orders"), (("region",), ("status",))
        )
        result = expr.evaluate(catalog)
        # rows of the (region) grouping have NULL status
        mask = result[GRP_TAG] == b"region"
        assert result["status"].dtype.kind == "S"
        assert set(result.take(mask)["status"]) == {b""}

    def test_describe(self, catalog):
        expr = GroupingSetsExpr(RelationExpr("orders"), (("region",),))
        assert "GroupingSets" in expr.describe()


class TestSelectionPushdown:
    def _expr(self):
        return SelectExpr(
            GroupingSetsExpr(
                RelationExpr("orders"),
                (("region", "status"), ("region",)),
            ),
            (Predicate("region", "==", "e"),),
        )

    def test_equivalence(self, catalog):
        original = self._expr()
        pushed = push_selection_below(original)
        got = pushed.evaluate(catalog)
        expected = original.evaluate(catalog)
        assert sorted(got.to_rows()) == sorted(expected.to_rows())

    def test_precondition_predicate_columns(self, catalog):
        bad = SelectExpr(
            GroupingSetsExpr(
                RelationExpr("orders"), (("region",), ("status",))
            ),
            (Predicate("region", "==", "e"),),
        )
        with pytest.raises(RewriteError):
            push_selection_below(bad)

    def test_precondition_shape(self):
        with pytest.raises(RewriteError):
            push_selection_below(
                SelectExpr(RelationExpr("orders"), (Predicate("x", "==", 1),))
            )


class TestJoinPushdown:
    def _grouping_over_join(self):
        join = JoinExpr(
            RelationExpr("orders"),
            RelationExpr("customers"),
            (("cust", "cust_id"),),
        )
        return GroupingSetsExpr(join, (("region",), ("status",)))

    def test_figure8_equivalence(self, catalog):
        original = self._grouping_over_join()
        rewrite = push_grouping_below_join(original)
        expected = original.evaluate(catalog)
        got = rewrite.expr.evaluate(catalog)
        for grouping in (("region",), ("status",)):
            assert gs_rows(got, grouping) == gs_rows(expected, grouping)

    def test_pushed_sets_extended_with_join_key(self):
        rewrite = push_grouping_below_join(self._grouping_over_join())
        assert rewrite.pushed_sets == (
            ("region", "cust"),
            ("status", "cust"),
        )

    def test_precondition_shape(self):
        expr = GroupingSetsExpr(RelationExpr("orders"), (("region",),))
        with pytest.raises(RewriteError):
            push_grouping_below_join(expr)

    def test_multi_key_join_rejected(self):
        join = JoinExpr(
            RelationExpr("orders"),
            RelationExpr("customers"),
            (("cust", "cust_id"), ("region", "tier")),
        )
        expr = GroupingSetsExpr(join, (("region",),))
        with pytest.raises(RewriteError):
            push_grouping_below_join(expr)


class TestExprPlumbing:
    def test_tag_filter(self, catalog):
        gs = GroupingSetsExpr(RelationExpr("orders"), (("region",), ("status",)))
        filtered = TagFilterExpr(gs, "region").evaluate(catalog)
        assert set(filtered[GRP_TAG]) == {b"region"}

    def test_group_by_expr_with_count_column(self, catalog):
        # SUM of partial counts equals direct COUNT(*).
        inner = GroupByExpr(RelationExpr("orders"), ("region", "status"))
        outer = GroupByExpr(inner, ("region",), count_column="cnt")
        result = outer.evaluate(catalog)
        expected = brute_force_group_by(catalog.get("orders"), ["region"])
        got = {
            (result["region"][i].item(),): int(result["cnt"][i])
            for i in range(result.num_rows)
        }
        assert got == expected

    def test_join_expr(self, catalog):
        join = JoinExpr(
            RelationExpr("orders"),
            RelationExpr("customers"),
            (("cust", "cust_id"),),
        )
        result = join.evaluate(catalog)
        assert result.num_rows == 8  # every order matches one customer
        assert "tier" in result
