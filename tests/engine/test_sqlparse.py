"""Unit tests for the restricted SQL front end."""

import pytest

from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.sqlparse import ParsedQuery, SqlParseError, parse_sql
from tests.conftest import brute_force_group_by


class TestGroupingSets:
    def test_basic(self):
        parsed = parse_sql(
            "SELECT a, b, COUNT(*) FROM t "
            "GROUP BY GROUPING SETS ((a, b), (a), (b))"
        )
        assert parsed.table == "t"
        assert parsed.grouping_sets == (("a", "b"), ("a",), ("b",))
        assert parsed.grouping_style == "grouping sets"
        assert parsed.queries() == [
            frozenset(["a", "b"]), frozenset(["a"]), frozenset(["b"]),
        ]

    def test_semicolon_and_case_insensitive_keywords(self):
        parsed = parse_sql(
            "select A from T group by grouping sets ((A));"
        )
        assert parsed.table == "T"
        assert parsed.grouping_sets == (("A",),)

    def test_empty_set_rejected(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT a FROM t GROUP BY GROUPING SETS ((a), ())")


class TestCubeRollup:
    def test_cube_desugars_to_all_subsets(self):
        parsed = parse_sql("SELECT COUNT(*) FROM t GROUP BY CUBE (a, b)")
        assert set(parsed.queries()) == {
            frozenset(["a", "b"]), frozenset(["a"]), frozenset(["b"]),
        }
        assert parsed.grouping_style == "cube"

    def test_rollup_desugars_to_prefixes(self):
        parsed = parse_sql("SELECT COUNT(*) FROM t GROUP BY ROLLUP (a, b, c)")
        assert parsed.grouping_sets == (("a", "b", "c"), ("a", "b"), ("a",))

    def test_plain_group_by(self):
        parsed = parse_sql("SELECT a, b FROM t GROUP BY a, b")
        assert parsed.grouping_sets == (("a", "b"),)
        assert parsed.grouping_style == "plain"


class TestSelectList:
    def test_aggregates_parsed(self):
        parsed = parse_sql(
            "SELECT a, COUNT(*), SUM(x) AS total, AVG(y) mean_y "
            "FROM t GROUP BY a"
        )
        funcs = [(s.func, s.column, s.alias) for s in parsed.aggregates]
        assert funcs == [
            ("count", None, "cnt"),
            ("sum", "x", "total"),
            ("avg", "y", "mean_y"),
        ]

    def test_count_column(self):
        parsed = parse_sql("SELECT a, COUNT(x) FROM t GROUP BY a")
        assert parsed.aggregates[0].func == "count_col"

    def test_default_count_star(self):
        parsed = parse_sql("SELECT a FROM t GROUP BY a")
        assert parsed.aggregates == (AggregateSpec.count_star(),)

    def test_ungrouped_select_column_rejected(self):
        with pytest.raises(SqlParseError, match="not grouped"):
            parse_sql("SELECT z FROM t GROUP BY a")

    def test_select_star(self):
        parsed = parse_sql("SELECT * FROM t GROUP BY a, b")
        assert parsed.select_columns == ("a", "b")


class TestWhere:
    def test_predicates(self):
        parsed = parse_sql(
            "SELECT a FROM t WHERE x > 3 AND s = 'it''s' AND y <> 1.5 "
            "GROUP BY a"
        )
        ops = [(p.column, p.op, p.value) for p in parsed.predicates]
        assert ops == [("x", ">", 3), ("s", "==", "it's"), ("y", "!=", 1.5)]

    def test_missing_literal(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT a FROM t WHERE x > GROUP BY a")


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES (1)",
            "SELECT a FROM t",
            "SELECT a FROM t GROUP BY GROUPING SETS",
            "SELECT a FROM t GROUP BY a extra tokens here ~",
            "",
        ],
    )
    def test_rejected(self, sql):
        with pytest.raises(SqlParseError):
            parse_sql(sql)


class TestExecution:
    def test_expression_evaluates(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        parsed = parse_sql(
            "SELECT low, mid, COUNT(*) FROM r "
            "GROUP BY GROUPING SETS ((low), (mid))"
        )
        result = parsed.to_expression().evaluate(catalog)
        low_rows = result.take(result["grp_tag"] == b"low")
        expected = brute_force_group_by(random_table, ["low"])
        got = {
            (low_rows["low"][i].item(),): int(low_rows["cnt"][i])
            for i in range(low_rows.num_rows)
        }
        assert got == expected

    def test_where_applies_before_grouping(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        parsed = parse_sql(
            "SELECT low FROM r WHERE mid > 30 GROUP BY GROUPING SETS ((low))"
        )
        result = parsed.to_expression().evaluate(catalog)
        filtered = random_table.take(random_table["mid"] > 30)
        assert int(result["cnt"].sum()) == filtered.num_rows

    def test_plans_through_gs_planner(self, random_table):
        from repro.core.gs_planner import plan_grouping_sets
        from repro.stats.cardinality import ExactCardinalityEstimator

        catalog = Catalog()
        catalog.add_table(random_table)
        parsed = parse_sql(
            "SELECT low, mid FROM r GROUP BY GROUPING SETS ((low), (mid), (low, mid))"
        )
        planned = plan_grouping_sets(
            parsed.to_expression(),
            catalog,
            ExactCardinalityEstimator(random_table),
        )
        reference = parsed.to_expression().evaluate(catalog)
        assert sorted(planned.table.to_rows()) == sorted(reference.to_rows())

    @pytest.mark.parametrize("where", ["", "WHERE mid > 30 "])
    def test_planner_computes_parsed_aggregates(self, random_table, where):
        """Direct and selection-pushdown plans compute the statement's
        aggregates, and HAVING filters on their aliases."""
        from repro.core.gs_planner import plan_grouping_sets
        from repro.stats.cardinality import ExactCardinalityEstimator

        catalog = Catalog()
        catalog.add_table(random_table)
        parsed = parse_sql(
            "SELECT low, AVG(high), SUM(shadow) AS s, MIN(txt) FROM r "
            f"{where}GROUP BY GROUPING SETS ((low), (low, mid)) HAVING s > 1000"
        )
        planned = plan_grouping_sets(
            parsed.to_expression(),
            catalog,
            ExactCardinalityEstimator(random_table),
        )
        reference = parsed.to_expression().evaluate(catalog)
        assert planned.table.column_names == reference.column_names
        assert planned.table.column_names[-3:] == ("avg_high", "s", "min_txt")
        assert sorted(planned.table.to_rows()) == sorted(reference.to_rows())
        having = parsed.apply_having(planned.table)
        assert 0 < having.num_rows < planned.table.num_rows
        assert all(total > 1000 for total in having["s"])


class TestHaving:
    def test_parsed(self):
        parsed = parse_sql(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING cnt > 1"
        )
        assert len(parsed.having) == 1
        assert parsed.having[0].column == "cnt"

    def test_must_reference_aggregate_alias(self):
        with pytest.raises(SqlParseError, match="HAVING column"):
            parse_sql("SELECT a FROM t GROUP BY a HAVING b > 1")

    def test_custom_alias_allowed(self):
        parsed = parse_sql(
            "SELECT a, SUM(x) AS total FROM t GROUP BY a HAVING total >= 10"
        )
        assert parsed.having[0].column == "total"

    def test_duplicate_detection_idiom(self, random_table):
        """HAVING cnt > 1: the data-quality duplicate finder."""
        catalog = Catalog()
        catalog.add_table(random_table)
        parsed = parse_sql(
            "SELECT high FROM r GROUP BY GROUPING SETS ((high)) "
            "HAVING cnt > 1"
        )
        result = parsed.apply_having(parsed.to_expression().evaluate(catalog))
        assert result.num_rows > 0
        assert all(c > 1 for c in result["cnt"])
        expected = sum(
            1
            for count in brute_force_group_by(random_table, ["high"]).values()
            if count > 1
        )
        assert result.num_rows == expected

    def test_having_with_where(self, random_table):
        catalog = Catalog()
        catalog.add_table(random_table)
        parsed = parse_sql(
            "SELECT low FROM r WHERE mid > 10 GROUP BY low HAVING cnt >= 5"
        )
        result = parsed.apply_having(parsed.to_expression().evaluate(catalog))
        assert all(c >= 5 for c in result["cnt"])
