"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.engine.csv_io import save_csv
from repro.engine.table import Table


@pytest.fixture
def csv_path(tmp_path):
    rng = np.random.default_rng(0)
    n = 2_000
    table = Table(
        "orders",
        {
            "region": rng.integers(0, 5, n),
            "state": rng.integers(0, 40, n),
            "status": rng.choice(np.array(["open", "done"]), n),
            "order_id": np.arange(n),
        },
    )
    path = tmp_path / "orders.csv"
    save_csv(table, path)
    return str(path)


class TestProfile:
    def test_runs_and_reports(self, csv_path, capsys):
        assert main(["profile", csv_path, "--statistics", "exact"]) == 0
        out = capsys.readouterr().out
        assert "profile of orders" in out
        assert "region" in out
        assert "almost a key" in out  # order_id detected

    def test_column_selection(self, csv_path, capsys):
        main(["profile", csv_path, "--columns", "region,status"])
        out = capsys.readouterr().out
        assert "region" in out
        assert "order_id" not in out

    def test_key_candidates(self, csv_path, capsys):
        main(
            [
                "profile", csv_path,
                "--key", "region,state;order_id",
                "--statistics", "exact",
            ]
        )
        out = capsys.readouterr().out
        assert "(region, state) is NOT a key" in out
        assert "(order_id) is a key" in out

    def test_combi(self, csv_path, capsys):
        main(
            [
                "profile", csv_path,
                "--columns", "region,status",
                "--combi", "2",
            ]
        )
        out = capsys.readouterr().out
        assert "(region,status):" in out


class TestPlan:
    """The plan views of ``explain`` (the former ``plan`` subcommand)."""

    def test_explicit_queries_and_sql(self, csv_path, capsys):
        main(
            [
                "explain", csv_path,
                "--queries", "region;state;region,state",
                "--statistics", "exact",
                "--sql",
            ]
        )
        out = capsys.readouterr().out
        assert "SQL script" in out
        assert "GROUP BY" in out
        assert "cost-model calls" in out

    def test_dot_output(self, csv_path, capsys):
        main(["explain", csv_path, "--dot", "--columns", "region,state"])
        out = capsys.readouterr().out
        assert "digraph gbmqo {" in out
        assert "SQL script" not in out


class TestCompare:
    def test_compare_prints_timings(self, csv_path, capsys):
        assert main(["compare", csv_path, "--statistics", "exact"]) == 0
        out = capsys.readouterr().out
        assert "naive:" in out
        assert "GB-MQO:" in out
        assert "speedup vs naive" in out

    def test_max_rows(self, csv_path, capsys):
        main(["profile", csv_path, "--max-rows", "100"])
        out = capsys.readouterr().out
        assert "100 rows" in out.replace(",", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare"],
            ["profile", "--columns", "region,channel"],
            ["sql", "SELECT COUNT(*) FROM sales GROUP BY CUBE (region, channel)"],
        ],
    )
    def test_every_data_command_takes_a_builtin_workload(self, argv, capsys):
        assert main(argv + ["--workload", "sales", "--rows", "1500"]) == 0
        assert capsys.readouterr().out
        assert main(argv) == 2
        assert "--workload" in capsys.readouterr().err


def _result_rows(out, header):
    """The printed result rows below ``header``, split into fields."""
    lines = out.splitlines()
    start = lines.index(header) + 2
    return [line.split("  ") for line in lines[start:] if line]


class TestSql:
    def test_grouping_sets_statement(self, csv_path, capsys):
        code = main(
            [
                "sql", csv_path,
                "SELECT region, COUNT(*) FROM orders "
                "GROUP BY GROUPING SETS ((region), (status))",
                "--statistics", "exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy: direct" in out
        assert "result rows" in out

    def test_where_clause_uses_selection_pushdown(self, csv_path, capsys):
        main(
            [
                "sql", csv_path,
                "SELECT region FROM orders WHERE state > 20 "
                "GROUP BY GROUPING SETS ((region), (status))",
            ]
        )
        out = capsys.readouterr().out
        assert "strategy: selection_pushdown" in out

    def test_cube_statement(self, csv_path, capsys):
        main(
            [
                "sql", csv_path,
                "SELECT COUNT(*) FROM orders GROUP BY CUBE (region, status)",
                "--limit", "5",
            ]
        )
        out = capsys.readouterr().out
        assert "strategy: direct" in out

    def test_avg_is_computed(self, capsys):
        assert main(
            [
                "sql", "--workload", "sales", "--rows", "2000",
                "--limit", "100",
                "SELECT region, AVG(quantity) FROM sales "
                "GROUP BY GROUPING SETS ((region),(region,state))",
            ]
        ) == 0
        rows = _result_rows(
            capsys.readouterr().out, "grp_tag  region  state  avg_quantity"
        )
        assert rows
        # quantity is drawn from 1..20.
        assert all(1.0 <= float(row[-1]) <= 20.0 for row in rows)

    def test_having_reads_an_aggregate_alias(self, capsys):
        assert main(
            [
                "sql", "--workload", "sales", "--rows", "2000",
                "--limit", "100",
                "SELECT region, SUM(quantity) AS q FROM sales "
                "GROUP BY GROUPING SETS ((region),(region,state)) "
                "HAVING q > 10",
            ]
        ) == 0
        rows = _result_rows(capsys.readouterr().out, "grp_tag  region  state  q")
        assert rows
        assert all(int(row[-1]) > 10 for row in rows)

    def test_padding_prints_null(self, tmp_path, capsys):
        # Each grouping set pads the keys it leaves out: an int, a float
        # and a string key, each printed as NULL rather than its sentinel.
        path = tmp_path / "t.csv"
        save_csv(
            Table(
                "t",
                {
                    "i": [1, 2, 1, 2],
                    "f": [0.5, 0.5, 1.5, 1.5],
                    "s": ["a", "b", "b", "a"],
                },
            ),
            path,
        )
        assert main(
            [
                "sql", str(path),
                "SELECT COUNT(*) FROM t GROUP BY GROUPING SETS ((i), (f), (s))",
            ]
        ) == 0
        rows = _result_rows(capsys.readouterr().out, "grp_tag  i  f  s  cnt")
        assert sorted(row[1:] for row in rows) == [
            ["1", "NULL", "NULL", "2"],
            ["2", "NULL", "NULL", "2"],
            ["NULL", "0.5", "NULL", "2"],
            ["NULL", "1.5", "NULL", "2"],
            ["NULL", "NULL", "a", "2"],
            ["NULL", "NULL", "b", "2"],
        ]


class TestExplain:
    def test_static_explain_on_csv(self, csv_path, capsys):
        code = main(
            [
                "explain", csv_path,
                "--queries", "region;state;region,state",
                "--statistics", "exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- EXPLAIN --" in out
        assert "estimated cost" in out
        assert "search:" in out
        assert "merges accepted" in out

    def test_analyze_reports_actuals_and_q_error(self, csv_path, capsys):
        code = main(
            ["explain", csv_path, "--analyze", "--statistics", "exact"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "actual rows=" in out
        assert "q-error" in out
        assert "totals:" in out

    def test_builtin_workload_source(self, capsys):
        code = main(
            ["explain", "--workload", "sales", "--rows", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sales" in out

    def test_requires_a_source(self, capsys):
        assert main(["explain"]) == 2
        assert "--workload" in capsys.readouterr().err


class TestTrace:
    def test_trace_renders_span_tree(self, csv_path, capsys):
        code = main(["trace", csv_path, "--statistics", "exact"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace" in out
        assert "optimize" in out
        assert "execute.plan" in out
        assert "search:" in out

    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--out", str(out_path),
                "--metrics",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "registry snapshot" in stdout
        assert f"spans to {out_path}" in stdout
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
            if line
        ]
        assert records
        # Exactly one root span, covering both optimize and execute.
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["trace"]
        children = {
            r["name"]
            for r in records
            if r["parent_id"] == roots[0]["span_id"]
        }
        assert children == {"optimize", "execute.plan"}

    def test_requires_a_source(self, capsys):
        assert main(["trace"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_trace_parallel_wavefront(self, capsys):
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--parallelism", "2",
                "--mode", "wavefront",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execute.plan" in out
        assert "execute.wave" in out

    def test_explain_analyze_parallel(self, capsys):
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--analyze",
                "--parallelism", "2",
                "--mode", "morsel",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "actual rows=" in out
        # Forced: auto never picks morsel.
        assert "mode=morsel" in out


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["profile", "/nonexistent/x.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_sql(self, csv_path, capsys):
        code = main(["sql", csv_path, "DROP TABLE orders"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        assert main(["profile", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestParallelismValidation:
    def test_zero_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "trace",
                    "--workload", "sales",
                    "--parallelism", "0",
                ]
            )
        assert excinfo.value.code == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err

    def test_negative_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "explain",
                    "--workload", "sales",
                    "--parallelism", "-3",
                ]
            )
        assert "parallelism must be >= 1" in capsys.readouterr().err

    def test_non_integer_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "trace",
                    "--workload", "sales",
                    "--parallelism", "two",
                ]
            )
        assert "'two' is not an integer" in capsys.readouterr().err


class TestPhysicalExplain:
    def test_explain_renders_physical_tree(self, capsys):
        code = main(["explain", "--workload", "sales", "--rows", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- PHYSICAL --" in out
        assert "physical plan: sales" in out
        assert "Scan sales" in out
        assert "GroupBy" in out  # Hash or Sort flavor, chosen by cost

    def test_explain_physical_honors_budget(self, capsys):
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--memory-budget-bytes", "4096",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "budget=4096B" in out

    def test_analyze_runs_the_printed_physical_plan(
        self, capsys, monkeypatch
    ):
        """Regression: --analyze used to execute a lowering made without
        the budget and then print one made with it."""
        from repro.engine.executor import PlanExecutor

        executed = []
        execute_physical = PlanExecutor.execute_physical

        def spy(self, physical):
            executed.append(physical)
            return execute_physical(self, physical)

        monkeypatch.setattr(PlanExecutor, "execute_physical", spy)
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "20000",
                "--analyze",
                "--memory-budget-bytes", "2000",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.split("-- PHYSICAL --\n")[1]
        assert "budget=2000B" in printed
        assert "partitions" in printed
        [physical] = executed
        assert physical.render() + "\n" == printed

    def test_explain_analyze_includes_physical(self, capsys):
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--analyze",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- PHYSICAL --" in out


class TestTraceMetricsExport:
    def test_metrics_flag_prints_registry_snapshot(self, capsys):
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "registry snapshot" in out
        assert "repro_executor_runs_total" in out

    def test_output_alias_for_out(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()

    def test_prom_out_writes_exposition(self, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--prom-out", str(prom_path),
            ]
        )
        assert code == 0
        text = prom_path.read_text()
        assert "# TYPE repro_executor_runs_total counter" in text
        assert 'le="+Inf"' in text


def golden_tracer():
    """A small hand-clocked optimize + execute trace."""
    from repro.obs import ManualClock, Tracer

    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("trace", source="golden", queries=2):
        with tracer.span("optimize", relation="r"):
            with tracer.span("optimize.iteration", index=1):
                clock.advance(0.0015)
            clock.advance(0.0005)
        with tracer.span("execute.plan"):
            with tracer.span("execute.node", node="(a,b)"):
                with tracer.span("execute.hash_group_by", op_id=1):
                    clock.advance(0.002)
                clock.advance(0.000087)
            with tracer.span("execute.node", node="(a)"):
                clock.advance(0.00025)
            with tracer.span("execute.drop_temp", temp="tmp__a__b"):
                clock.advance(0.00001)
        clock.advance(0.001)
    return tracer


#: What ``flamegraph --from-jsonl <golden trace> --out`` wrote before the
#: subcommand became ``trace --collapsed-out``.
GOLDEN_COLLAPSED = """\
trace 1000
trace;execute.plan;execute.drop_temp tmp__a__b 10
trace;execute.plan;execute.node (a) 250
trace;execute.plan;execute.node (a,b) 87
trace;execute.plan;execute.node (a,b);execute.hash_group_by 2000
trace;optimize 500
trace;optimize;optimize.iteration 1500
"""


class TestFlamegraph:
    """The profile views of ``trace`` (the former ``flamegraph``)."""

    def test_live_run_prints_table_and_writes_collapsed(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "profile.collapsed"
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--self-time", "20",
                "--collapsed-out", str(out_path),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "self ms" in stdout
        assert "collapsed stacks" in stdout
        for line in out_path.read_text().splitlines():
            path, weight = line.rsplit(" ", 1)
            assert path.startswith("trace")
            assert int(weight) > 0

    def test_from_jsonl_replays_a_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace",
                    "--workload", "sales",
                    "--rows", "2000",
                    "--out", str(trace_path),
                ]
            )
            == 0
        )
        live = capsys.readouterr().out
        assert "self ms" not in live  # the table is opt-in
        code = main(
            ["trace", "--from-jsonl", str(trace_path), "--self-time", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "self ms" in out
        assert "optimize" in out
        # The replayed tree is the live one; only the live run has a
        # search/execution summary to print.
        assert out.splitlines()[0] == live.splitlines()[0]
        assert "search:" in live and "search:" not in out

    def test_requires_a_source(self, capsys):
        assert main(["trace", "--self-time", "5"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_collapsed_out_matches_flamegraph_golden(self, tmp_path, capsys):
        from repro.obs import write_jsonl

        trace_path = tmp_path / "golden.jsonl"
        write_jsonl(golden_tracer(), trace_path)
        out_path = tmp_path / "golden.collapsed"
        code = main(
            [
                "trace",
                "--from-jsonl", str(trace_path),
                "--collapsed-out", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.read_text() == GOLDEN_COLLAPSED
        assert "wrote 7 collapsed stacks" in capsys.readouterr().out

    def test_from_jsonl_round_trips_an_exported_trace(self, tmp_path):
        from repro.obs import write_jsonl

        first = tmp_path / "first.jsonl"
        write_jsonl(golden_tracer(), first)
        second = tmp_path / "second.jsonl"
        assert (
            main(["trace", "--from-jsonl", str(first), "--out", str(second)])
            == 0
        )
        assert second.read_bytes() == first.read_bytes()

    def test_from_jsonl_rejects_live_only_views(self, tmp_path, capsys):
        from repro.obs import write_jsonl

        trace_path = tmp_path / "golden.jsonl"
        write_jsonl(golden_tracer(), trace_path)
        assert main(["trace", "--from-jsonl", str(trace_path), "--metrics"]) == 2
        assert "live run" in capsys.readouterr().err

    def test_empty_trace_file_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "--from-jsonl", str(empty)]) == 2
        assert "no spans" in capsys.readouterr().err


class TestCacheCommand:
    def test_text_output_reports_warm_hits(self, capsys):
        code = main(
            ["cache", "--workload", "sales", "--rows", "2000", "--runs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wall ms" in out
        assert "cache:" in out
        assert "hits" in out
        assert "resident entries" in out

    def test_json_output_shape(self, capsys):
        import json

        code = main(
            [
                "cache",
                "--workload", "sales",
                "--rows", "2000",
                "--runs", "2",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 2
        assert payload["stats"]["enabled"] is True
        assert payload["stats"]["hits"] > 0
        assert payload["entries"]
        # The warm run re-reads nothing from the base table.
        assert (
            payload["runs"][1]["rows_scanned"]
            < payload["runs"][0]["rows_scanned"]
        )

    def test_config_knobs_respected(self, capsys):
        import json

        code = main(
            [
                "cache",
                "--workload", "sales",
                "--rows", "2000",
                "--min-rows", "1000000",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["entries"] == 0
        assert payload["stats"]["rejected"] > 0

    def test_bad_max_bytes_exits_2(self, capsys):
        code = main(
            ["cache", "--workload", "sales", "--max-bytes", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_runs_exits_2(self, capsys):
        code = main(
            ["cache", "--workload", "sales", "--runs", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_source(self, capsys):
        assert main(["cache"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_memory_budget_reaches_execute(self, capsys, monkeypatch):
        """Regression: ``cache --memory-budget-bytes`` was accepted and
        silently dropped."""
        from repro.api import Session

        budgets = []
        execute = Session.execute

        def spy(self, plan, **kwargs):
            budgets.append(kwargs.get("memory_budget_bytes"))
            return execute(self, plan, **kwargs)

        monkeypatch.setattr(Session, "execute", spy)
        code = main(
            [
                "cache",
                "--workload", "sales",
                "--rows", "2000",
                "--memory-budget-bytes", "4096",
            ]
        )
        assert code == 0
        assert budgets == [4096.0, 4096.0]

    def test_cache_flag_on_trace(self, capsys):
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--cache",
            ]
        )
        assert code == 0
        assert "execute" in capsys.readouterr().out

    def test_cache_flag_on_explain_analyze(self, capsys):
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--analyze",
                "--cache",
            ]
        )
        assert code == 0


class TestFormatContract:
    """Every --format-bearing obs command honors text|json and the
    0/1/2 exit contract."""

    def _argv(self, command):
        if command == "analyze-plan":
            return ["analyze-plan", "--workload", "sales", "--rows", "800"]
        assert command == "cache"
        return ["cache", "--workload", "sales", "--rows", "2000"]

    @pytest.mark.parametrize("command", ["analyze-plan", "cache"])
    def test_json_parses_and_text_does_not(self, command, capsys):
        import json

        argv = self._argv(command)
        assert main(argv + ["--format", "json"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        text = capsys.readouterr().out
        with pytest.raises(ValueError):
            json.loads(text)

    @pytest.mark.parametrize("command", ["analyze-plan", "cache"])
    def test_bad_format_value_exits_2(self, command, capsys):
        argv = self._argv(command)
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--format", "yaml"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze-plan"],
            ["cache"],
            ["trace", "--from-jsonl", "/nonexistent/trace.jsonl"],
        ],
    )
    def test_bad_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_retired_adaptive_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["adaptive", "--workload", "sales", "--runs", "1"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'adaptive'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["plan", "flamegraph", "calibration"])
    def test_folded_subcommands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workload", "sales"])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
