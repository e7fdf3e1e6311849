"""Smoke tests: every experiment runs at tiny scale and has the right
shape (headers, row counts, basic sanity of the reproduced trend)."""

from repro.experiments import (
    exp_binary_tree,
    exp_fig9,
    exp_fig10,
    exp_fig11,
    exp_fig12,
    exp_fig13,
    exp_fig14,
    exp_table1,
    exp_table2,
    exp_table3,
)


class TestTable1:
    def test_inventory(self):
        result = exp_table1.run(
            rows={
                "1g TPC-H (lineitem)": 2_000,
                "SALES": 2_000,
            }
        )
        assert len(result.rows) == 2
        assert result.column("#rows") == [2_000, 2_000]


class TestTable2:
    def test_sc_beats_grouping_sets(self):
        result = exp_table2.run(rows=40_000)
        by_query = dict(zip(result.column("Query"), result.column("Speedup")))
        assert by_query["SC"] > 1.0
        strategies = dict(
            zip(result.column("Query"), result.column("GrpSet strategy"))
        )
        assert strategies["SC"] == "union_groupby"
        assert strategies["CONT"] == "shared_sort"


class TestTable3:
    def test_rows_and_speedups(self):
        result = exp_table3.run(
            rows_1g=15_000,
            rows_10g=25_000,
            rows_sales=15_000,
            rows_nref=15_000,
            workloads=("SC",),
        )
        assert len(result.rows) == 4
        # The IO-shaped metric must consistently favor GB-MQO.
        assert all(ratio > 1.0 for ratio in result.column("Work ratio"))


class TestFig9:
    def test_cost_never_below_optimal(self):
        result = exp_fig9.run(rows=12_000, n_workloads=3, k=5)
        ratios = result.column("GB-MQO cost / optimal cost")
        assert all(ratio >= 1.0 - 1e-9 for ratio in ratios)
        optimal = result.column("Optimal work reduction %")
        gbmqo = result.column("GB-MQO work reduction %")
        assert len(optimal) == len(gbmqo) == 3


class TestFig10:
    def test_calls_grow_with_width(self):
        result = exp_fig10.run(rows=8_000, widths=(12, 24))
        calls = result.column("optimizer calls")
        assert calls[1] > calls[0]


class TestBinaryTree:
    def test_binary_reduces_calls(self):
        result = exp_binary_tree.run(rows=10_000)
        rows = {
            (r[0], r[1]): r[2] for r in result.rows
        }
        for dataset in ("tpc-h", "sales"):
            assert rows[(dataset, "binary only")] <= rows[(dataset, "all merges")]


class TestFig11:
    def test_pruning_cuts_calls(self):
        """Section 6.6 measured the loop that costs every pair it walks
        (``eager_search``): each pruner cuts its calls.  The production
        search, which costs a pair only once its floor surfaces, cuts
        them too, and keeps the unpruned plan."""
        result = exp_fig11.run(
            rows=8_000, datasets=("tpc-h",), workloads=("TC",)
        )
        calls = dict(
            zip(result.column("Search"), result.column("Optimizer calls"))
        )
        cost = dict(
            zip(result.column("Search"), result.column("Plan cost / naive"))
        )
        assert len(calls) == 5
        for label in ("eager M", "eager S", "eager S+M"):
            assert calls[label] <= calls["eager None"], label
        assert calls["bound-first"] <= 0.7 * calls["eager None"]
        assert cost["bound-first"] == cost["eager None"]


class TestFig12:
    def test_statistics_metered(self):
        result = exp_fig12.run(rows_1g=10_000, rows_10g=15_000)
        assert len(result.rows) == 4
        assert all(n > 0 for n in result.column("#statistics"))


class TestFig13:
    def test_work_ratio_trends_up_with_skew(self):
        result = exp_fig13.run(rows=20_000, z_values=(0.0, 2.0, 3.0))
        ratios = result.column("Work ratio")
        assert ratios[-1] > ratios[0]


class TestFig14:
    def test_work_falls_with_indexes(self):
        result = exp_fig14.run(rows=20_000)
        work = result.column("Work (MB)")
        assert work[-1] < work[0]
        assert result.rows[0][0] == "clustered only"

    def test_plans_adapt(self):
        result = exp_fig14.run(rows=20_000)
        flags = result.column("receiptdate singleton?")
        # After the l_receiptdate index exists, the column must be a
        # singleton in every subsequent plan.
        assert all(flag == "yes" for flag in flags[1:])


class TestStorageSupplementary:
    def test_monotone_tradeoff(self):
        from repro.experiments import exp_storage

        result = exp_storage.run(rows=15_000, fractions=(0.0, 0.1, 1.0))
        costs = result.column("Plan cost")
        # Tighter caps can never produce cheaper plans.
        assert costs[0] >= costs[1] >= costs[2]
        merged = result.column("Merged nodes")
        assert merged[0] == 0  # cap 0 forces the naive plan


class TestAggregatesSupplementary:
    def test_work_reduced_and_results_match(self):
        from repro.experiments import exp_aggregates

        result = exp_aggregates.run(rows=12_000)
        work = dict(zip(result.column("Plan"), result.column("Work (MB)")))
        assert work["GB-MQO (union aggregates)"] < work["naive"]
