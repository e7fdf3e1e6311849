"""Command-line interface: profile a CSV file the way the paper's data
analyst would.

Subcommands::

    python -m repro.cli profile data.csv [--combi 2] [--statistics sampled]
    python -m repro.cli compare data.csv [--combi 2]
    python -m repro.cli sql data.csv "SELECT ... GROUP BY CUBE (a, b)"
    python -m repro.cli explain data.csv [--analyze] [--sql] [--dot]
    python -m repro.cli trace --workload sales --out trace.jsonl
    python -m repro.cli analyze-plan --workload sales [--states]
    python -m repro.cli cache --workload sales --runs 3 [--max-bytes N]
    python -m repro.cli lint-code [paths ...]

Every data-taking subcommand reads a CSV or one of the built-in
synthetic relations (``--workload``) and is a selection of views over
one ``optimize -> lower -> check -> execute`` pass.  ``profile`` runs
the single-column (or Combi) workload through GB-MQO and prints a
data-quality report; ``compare`` times GB-MQO against the naive plan
and the commercial-style GROUPING SETS strategy; ``sql`` runs one
GROUPING SETS / CUBE / ROLLUP statement; ``explain`` prints the chosen
logical plan with per-node estimates and the lowered physical plan
(``--analyze`` runs that physical plan and adds actuals plus q-error,
``--sql`` adds the SQL script, ``--dot`` the DOT graph); ``trace`` runs
optimize + execute under the span tracer — or replays an exported trace
via ``--from-jsonl`` — and renders the span tree (``--self-time N`` adds
the per-operator self-time table, ``--out`` exports JSONL,
``--collapsed-out`` the collapsed-stack flamegraph profile,
``--metrics`` the metrics-registry snapshot, ``--prom-out`` its
Prometheus exposition); ``analyze-plan`` runs the abstract-
interpretation dataflow analyzer (PV012+) over the physical plan with
full catalog and cardinality context; ``cache`` runs a workload
repeatedly with the semantic result cache enabled and reports
hit/eviction accounting plus the resident entries; ``lint-code`` runs
the custom AST lints over the repro sources.

``explain``, ``trace`` and ``analyze-plan`` accept ``--cache`` to enable
the semantic result cache for the run (repeated groupings are served
from cached results instead of rescanning the base relation).

The static-analysis subcommands share one exit-code contract: 0 clean,
1 any finding, 2 usage/input error.  Both accept ``--format json`` for
machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.diagnostics import format_report, report_as_dict
from repro.analysis.linter import lint_paths
from repro.api import Session
from repro.baselines.grouping_sets import CommercialGroupingSetsPlanner
from repro.core.visualize import plan_to_dot
from repro.engine.csv_io import load_csv
from repro.engine.sqlgen import plan_to_sql
from repro.engine.types import null_mask
from repro.obs import (
    MetricsRegistry,
    Tracer,
    format_snapshot,
    read_jsonl,
    render_self_time_table,
    render_span_tree,
    self_time_table,
    spans_from_dicts,
    write_collapsed,
    write_jsonl,
)
from repro.physical.plan import EXECUTION_MODES
from repro.workloads.customers import make_customers
from repro.workloads.queries import combi_workload, single_column_queries
from repro.workloads.sales import make_sales
from repro.workloads.tpch import make_lineitem

#: Built-in synthetic relations, so every data-taking subcommand works
#: without a CSV on hand.
WORKLOAD_BUILDERS = {
    "sales": make_sales,
    "lineitem": make_lineitem,
    "customers": make_customers,
}


def _load_table(args):
    """The base relation: a CSV path or a ``--workload`` relation."""
    if args.csv:
        table = load_csv(args.csv, max_rows=args.max_rows)
    else:
        table = WORKLOAD_BUILDERS[args.workload](args.rows)
    table.build_dictionaries()
    return table


def _open(
    args,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    cache=False,
) -> tuple[Session, list[frozenset[str]]]:
    """Session + workload of one run.

    The result cache is on when the subcommand passes a
    :class:`~repro.cache.CacheConfig` or the user passed ``--cache``.
    """
    table = _load_table(args)
    session = Session.for_table(
        table,
        statistics=args.statistics,
        tracer=tracer,
        metrics=metrics,
        cache=cache or getattr(args, "cache", False),
    )
    columns = args.columns.split(",") if args.columns else list(table.column_names)
    if args.queries:
        queries = [
            frozenset(part.split(",")) for part in args.queries.split(";")
        ]
    elif args.combi > 1:
        queries = combi_workload(columns, args.combi)
    else:
        queries = single_column_queries(columns)
    return session, queries


def _run_options(args) -> dict[str, object]:
    """The execution knobs, as ``Session.execute``/``lower`` keywords."""
    return {
        "parallelism": args.parallelism,
        "mode": args.mode,
        "memory_budget_bytes": args.memory_budget_bytes,
    }


def cmd_profile(args) -> int:
    session, queries = _open(args)
    table = session.catalog.get(session.base_table)
    if args.combi > 1 or any(len(q) > 1 for q in queries):
        # Multi-column workloads: show the plan and distribution sizes.
        print(
            f"profiling {table.name}: {table.num_rows:,} rows, "
            f"{len(queries)} Group By queries"
        )
        result = session.optimize(queries)
        print("\nplan:")
        print(result.plan.render())
        execution = session.execute(result.plan)
        print(
            f"\nexecuted in {execution.wall_seconds:.3f}s "
            f"({execution.metrics.queries_executed} queries, "
            f"{execution.metrics.work / 1e6:.1f} MB moved)"
        )
        print("\ndistribution sizes:")
        for query in sorted(queries, key=lambda q: (len(q), sorted(q))):
            groups = execution.results[query].num_rows
            label = ",".join(sorted(query))
            ratio = groups / max(table.num_rows, 1)
            flag = "  <- (almost) a key" if ratio > 0.95 else ""
            print(f"  ({label}): {groups:,} distinct{flag}")
        return 0
    # Single-column profiling: the full data-quality report.
    from repro.profile import profile_table

    key_candidates = (
        [tuple(part.split(",")) for part in args.key.split(";")]
        if args.key
        else []
    )
    report = profile_table(
        table,
        columns=[sorted(q)[0] for q in queries],
        key_candidates=key_candidates,
        session=session,
    )
    print(report.render())
    return 0


def cmd_compare(args) -> int:
    session, queries = _open(args)
    result = session.optimize(queries)
    execution = session.execute(result.plan)
    naive = session.run_naive(queries)
    planner = CommercialGroupingSetsPlanner(
        session.catalog, session.base_table
    )
    started = time.perf_counter()
    outcome = planner.execute(queries)
    gs_seconds = time.perf_counter() - started
    print(f"naive:          {naive.wall_seconds:.3f}s")
    print(f"GROUPING SETS:  {gs_seconds:.3f}s ({outcome.strategy})")
    print(f"GB-MQO:         {execution.wall_seconds:.3f}s")
    print(
        f"speedup vs naive: {naive.wall_seconds / execution.wall_seconds:.2f}x "
        f"(work: {naive.metrics.work / execution.metrics.work:.2f}x)"
    )
    return 0


def cmd_explain(args) -> int:
    session, queries = _open(args)
    result = session.optimize(queries)
    print(result.plan.render())
    print(
        f"\nestimated cost {result.cost:,.0f} "
        f"(naive {result.naive_cost:,.0f}, "
        f"{result.estimated_speedup:.2f}x)"
    )
    print(f"search: {result.telemetry.summary()}")
    if args.analyze:
        # The physical plan printed below is the one that was executed.
        explanation = session.explain_analyze(
            result.plan, **_run_options(args)
        )
        physical = explanation.physical
        print("\n-- EXPLAIN ANALYZE --")
    else:
        explanation = session.explain(result.plan)
        physical = session.lower(result.plan, **_run_options(args))
        print("\n-- EXPLAIN --")
    print(explanation.render())
    print("\n-- PHYSICAL --")
    print(physical.render())
    if args.sql:
        print("\n-- SQL script --")
        for statement in plan_to_sql(result.plan):
            print(statement)
    if args.dot:
        print("\n-- DOT --")
        print(plan_to_dot(result.plan))
    return 0


def cmd_trace(args) -> int:
    registry = MetricsRegistry()
    summary = ""  # search/execution digest: a live run has one
    if args.from_jsonl:
        if args.metrics or args.prom_out:
            print(
                "error: --metrics/--prom-out need a live run, not "
                "--from-jsonl",
                file=sys.stderr,
            )
            return 2
        spans = spans_from_dicts(read_jsonl(args.from_jsonl))
    else:
        tracer = Tracer()
        session, queries = _open(args, tracer=tracer, metrics=registry)
        source = args.csv or args.workload
        # One root span over the whole optimize + execute pipeline, so the
        # exported tree has a single top-level entry covering both phases.
        with tracer.span("trace", source=str(source), queries=len(queries)):
            result = session.optimize(queries)
            execution = session.execute(result.plan, **_run_options(args))
        spans = tracer.spans
        summary = (
            f"\nsearch: {result.telemetry.summary()}\n"
            f"executed {execution.metrics.queries_executed} queries, "
            f"{execution.metrics.work / 1e6:.1f} MB moved"
        )
    if not spans:
        print("error: no spans to render", file=sys.stderr)
        return 2
    print(render_span_tree(spans))
    if summary:
        print(summary)
    if args.self_time:
        print("\n-- self time --")
        print(
            render_self_time_table(
                self_time_table(spans), limit=args.self_time
            )
        )
    if args.metrics:
        print("\n-- registry snapshot --")
        print(format_snapshot(dict(registry.flat_snapshot())))
    if args.prom_out:
        Path(args.prom_out).write_text(
            registry.to_prometheus(), encoding="utf-8"
        )
        print(f"\nwrote Prometheus exposition to {args.prom_out}")
    if args.out:
        lines = write_jsonl(spans, args.out)
        print(f"\nwrote {lines} spans to {args.out}")
    if args.collapsed_out:
        lines = write_collapsed(spans, args.collapsed_out)
        print(f"\nwrote {lines} collapsed stacks to {args.collapsed_out}")
    return 0


def cmd_sql(args) -> int:
    from repro.core.gs_planner import plan_grouping_sets
    from repro.engine.sqlparse import parse_sql

    table = _load_table(args)
    session = Session.for_table(table, statistics=args.statistics)
    parsed = parse_sql(args.statement)
    if parsed.table != table.name:
        # The statement names the logical relation; bind it to the file.
        session.catalog.drop(table.name)
        session.catalog.add_table(table.rename(parsed.table))
        session.invalidate_coster()
    planned = plan_grouping_sets(parsed.to_expression(), session.catalog)
    print(f"strategy: {planned.strategy}")
    print("plan:")
    print(planned.optimization.plan.render())
    result = parsed.apply_having(planned.table)
    print(f"\n{result.num_rows:,} result rows; first {min(args.limit, result.num_rows)}:")
    header = "  ".join(result.column_names)
    print(header)
    print("-" * len(header))
    rows = result.to_rows()[: args.limit]
    # GROUPING SETS pad the keys a set leaves out with each column's
    # NULL sentinel; SQL shows those as NULL.
    nulls = [
        null_mask(result[column][: len(rows)]) for column in result.column_names
    ]
    for index, row in enumerate(rows):
        print(
            "  ".join(
                "NULL" if null[index] else str(value)
                for value, null in zip(row, nulls)
            )
        )
    return 0


def _print_report(diagnostics, fmt: str) -> None:
    """Render a diagnostics list as text or JSON per ``--format``."""
    if fmt == "json":
        print(json.dumps(report_as_dict(diagnostics), indent=2))
    else:
        print(format_report(diagnostics))


def cmd_analyze_plan(args) -> int:
    from repro.analysis.dataflow import AnalysisContext, DataflowAnalysis
    from repro.analysis.physrules import verify_physical_plan

    session, queries = _open(args)
    result = session.optimize(queries)
    physical = session.lower(result.plan, **_run_options(args))
    context = AnalysisContext(
        catalog=session.catalog,
        base_table=session.base_table,
        estimator=session.estimator,
    )
    try:
        diagnostics = verify_physical_plan(
            physical, rules=_split_rules(args.rules), context=context
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "text" and args.states:
        print("-- abstract states --")
        print(DataflowAnalysis(physical, context).render())
        print()
    _print_report(diagnostics, args.format)
    return 1 if diagnostics else 0


def cmd_cache(args) -> int:
    from repro.cache import CacheConfig

    if args.runs < 1:
        print(f"error: --runs must be >= 1, got {args.runs}", file=sys.stderr)
        return 2
    try:
        config = CacheConfig(
            **{
                key: value
                for key, value in (
                    ("max_bytes", args.max_bytes),
                    ("min_rows", args.min_rows),
                )
                if value is not None
            }
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session, queries = _open(args, cache=config)
    result = session.optimize(queries)
    runs: list[dict[str, object]] = []
    for index in range(args.runs):
        execution = session.execute(result.plan, **_run_options(args))
        runs.append(
            {
                "run": index + 1,
                "wall_seconds": execution.wall_seconds,
                "queries_executed": execution.metrics.queries_executed,
                "rows_scanned": execution.metrics.rows_scanned,
            }
        )
    stats = session.cache_stats()
    cache = session.result_cache
    assert cache is not None
    entries = [entry.as_dict() for entry in cache.entries()]
    if args.format == "json":
        print(
            json.dumps(
                {"runs": runs, "stats": stats, "entries": entries},
                indent=2,
            )
        )
        return 0
    print(f"{'run':>3}  {'wall ms':>8}  {'queries':>7}  {'rows scanned':>12}")
    for record in runs:
        print(
            f"{record['run']:>3}  "
            f"{float(record['wall_seconds']) * 1e3:>8.2f}  "  # type: ignore[arg-type]
            f"{record['queries_executed']:>7}  "
            f"{record['rows_scanned']:>12,}"
        )
    print(
        f"\ncache: {stats['entries']} entries, {stats['bytes']:,} / "
        f"{stats['max_bytes']:,} bytes ({stats['policy']} eviction)"
    )
    print(
        f"hits {stats['hits']}  derived hits {stats['derived_hits']}  "
        f"misses {stats['misses']}  evictions {stats['evictions']}  "
        f"rejected {stats['rejected']}"
    )
    if entries:
        print("\nresident entries (most recently used first):")
        for entry in entries:
            keys = ",".join(entry["keys"])  # type: ignore[arg-type]
            print(
                f"  {entry['fingerprint']}  ({keys})  "
                f"{entry['rows']:,} rows  {entry['bytes']:,}B  "
                f"hits {entry['hits']}  v{entry['version']}"
            )
    return 0


def _split_rules(spec: str | None) -> list[str] | None:
    if not spec:
        return None
    return [rule.strip() for rule in spec.split(",") if rule.strip()]


def cmd_lint_code(args) -> int:
    if args.paths:
        paths = args.paths
    else:
        # Default target: the installed repro package sources.
        paths = [Path(__file__).resolve().parent]
    try:
        diagnostics = lint_paths(paths, rules=_split_rules(args.rules))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_report(diagnostics, args.format)
    return 1 if diagnostics else 0


def _positive_int(text: str) -> int:
    """argparse type for --parallelism: reject values below 1 up front."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"parallelism must be >= 1, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GB-MQO (SIGMOD 2005) over CSV files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def source_options(p):
        p.add_argument(
            "csv",
            nargs="?",
            help="input CSV file with a header row (or use --workload)",
        )
        p.add_argument(
            "--workload",
            choices=sorted(WORKLOAD_BUILDERS),
            help="built-in synthetic relation instead of a CSV",
        )
        p.add_argument(
            "--rows",
            type=int,
            default=20_000,
            help="rows to generate for --workload (default 20000)",
        )
        p.add_argument(
            "--statistics",
            choices=("exact", "sampled"),
            default="sampled",
        )
        p.add_argument(
            "--max-rows", type=int, default=None, help="row cap when loading"
        )

    def workload_options(p, execution=True):
        """Source, query set and — for the subcommands that expose how
        the plan is run — the execution knobs."""
        source_options(p)
        p.add_argument(
            "--columns",
            help="comma-separated columns to group by (default: all)",
        )
        p.add_argument(
            "--combi",
            type=int,
            default=1,
            help="all column subsets up to this size (default 1)",
        )
        p.add_argument(
            "--queries",
            help="explicit queries, e.g. 'city;state;city,state'",
        )
        if not execution:
            return
        p.add_argument(
            "--parallelism",
            type=_positive_int,
            default=None,
            help="worker threads for plan execution (default: every CPU "
            "the process may use)",
        )
        p.add_argument(
            "--mode",
            choices=("auto", *EXECUTION_MODES),
            default="auto",
            help="execution mode; auto runs serial under a memory budget "
            "and wavefront otherwise, and morsel runs only when forced "
            "(default auto)",
        )
        p.add_argument(
            "--memory-budget-bytes",
            type=float,
            default=None,
            help="plan-wide transient-memory budget for the physical "
            "lowering (groupings over it sort or partition)",
        )
        p.add_argument(
            "--cache",
            action="store_true",
            help="enable the semantic result cache: repeated groupings "
            "are served from cached results (exactly or via lattice "
            "reaggregation) instead of rescanning the base relation",
        )

    def format_option(p):
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format (default text)",
        )

    profile = sub.add_parser("profile", help="data-quality profile")
    workload_options(profile, execution=False)
    profile.add_argument(
        "--key",
        help="key-check candidates, e.g. 'last,first,zip;last,zip'",
    )
    profile.set_defaults(fn=cmd_profile)

    compare = sub.add_parser("compare", help="time GB-MQO vs baselines")
    workload_options(compare, execution=False)
    compare.set_defaults(fn=cmd_compare)

    sql = sub.add_parser(
        "sql", help="run a GROUPING SETS / CUBE / ROLLUP statement"
    )
    source_options(sql)
    sql.add_argument(
        "statement",
        help="e.g. \"SELECT a, COUNT(*) FROM data "
        "GROUP BY GROUPING SETS ((a), (b))\"",
    )
    sql.add_argument(
        "--limit", type=int, default=20, help="result rows to print"
    )
    sql.set_defaults(fn=cmd_sql)

    explain = sub.add_parser(
        "explain",
        help="the optimized plan with per-node estimates and its physical "
        "lowering; --analyze adds actuals and q-error",
    )
    workload_options(explain)
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan; report actual rows/bytes/time and q-error",
    )
    explain.add_argument(
        "--sql", action="store_true", help="also print the SQL script"
    )
    explain.add_argument("--dot", action="store_true", help="also print DOT")
    explain.set_defaults(fn=cmd_explain)

    trace = sub.add_parser(
        "trace",
        help="run optimize + execute under the span tracer",
        description="Run optimize + execute under the span tracer (or "
        "replay an exported trace via --from-jsonl) and render the span "
        "tree; optionally export it as JSONL or fold it into Brendan "
        "Gregg collapsed-stack format — consumable by flamegraph.pl and "
        "speedscope — and a per-operator self-time table.",
    )
    workload_options(trace)
    trace.add_argument(
        "--from-jsonl",
        help="view an exported trace JSONL (from `repro trace --out`) "
        "instead of running a workload",
    )
    trace.add_argument(
        "--out",
        "--output",
        dest="out",
        help="write the span tree to this JSONL file",
    )
    trace.add_argument(
        "--collapsed-out",
        help="write the collapsed-stack profile to this file",
    )
    trace.add_argument(
        "--self-time",
        type=int,
        metavar="N",
        help="also print the top-N rows of the per-operator self-time "
        "table",
    )
    trace.add_argument(
        "--metrics",
        action="store_true",
        help="also print the flat metrics-registry snapshot",
    )
    trace.add_argument(
        "--prom-out",
        help="write the metrics-registry Prometheus text exposition here",
    )
    trace.set_defaults(fn=cmd_trace)

    analyze = sub.add_parser(
        "analyze-plan",
        help="abstract-interpretation dataflow analysis of the lowered "
        "physical plan",
        description="Optimize the workload, lower the winning plan to "
        "physical operators, and run the dataflow analyzer (rules "
        "PV012+) with full catalog and cardinality context: column "
        "availability, grouping lattice, cardinality intervals, "
        "sortedness, and dictionary freshness.",
        epilog="exit status: 0 = no diagnostics, 1 = any diagnostic "
        "(errors or warnings), 2 = usage or input error",
    )
    workload_options(analyze)
    analyze.add_argument(
        "--rules", help="comma-separated rule ids to run (default: all)"
    )
    analyze.add_argument(
        "--states",
        action="store_true",
        help="also print the per-operator abstract states (text format)",
    )
    format_option(analyze)
    analyze.set_defaults(fn=cmd_analyze_plan)

    cache = sub.add_parser(
        "cache",
        help="run a workload under the semantic result cache and report "
        "hit/eviction accounting",
        description="Optimize the workload once, execute it --runs "
        "times inside one Session with the semantic result cache "
        "enabled, and report per-run wall time and scan volume plus "
        "the cache's hit/derived-hit/miss/eviction counters and the "
        "resident entries.  Run 1 is cold (populates the cache); later "
        "runs serve groupings from cached results, exactly or by "
        "lattice reaggregation.",
        epilog="exit status: 0 = success, 2 = usage or input error",
    )
    workload_options(cache)
    cache.add_argument(
        "--runs",
        type=int,
        default=2,
        help="execute iterations; run 1 is the cold run (default 2)",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="cache byte budget (default 64 MiB)",
    )
    cache.add_argument(
        "--min-rows",
        type=int,
        default=None,
        help="admit results only from inputs with at least this many "
        "rows (default 0)",
    )
    format_option(cache)
    cache.set_defaults(fn=cmd_cache)

    lint_code = sub.add_parser(
        "lint-code",
        help="run the custom AST lints over the repro sources",
        epilog="exit status: 0 = no findings, 1 = any finding (errors "
        "or warnings), 2 = usage or input error",
    )
    lint_code.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint_code.add_argument(
        "--rules", help="comma-separated rule ids to run (default: all)"
    )
    format_option(lint_code)
    lint_code.set_defaults(fn=cmd_lint_code)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "workload" in args and not (
        args.csv or args.workload or getattr(args, "from_jsonl", None)
    ):
        print(
            "error: provide a CSV path or --workload "
            f"({'/'.join(sorted(WORKLOAD_BUILDERS))})",
            file=sys.stderr,
        )
        return 2
    try:
        return args.fn(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # engine/parse errors -> clean exit
        from repro.engine.sqlparse import SqlParseError
        from repro.engine.types import EngineError

        if isinstance(error, (EngineError, SqlParseError)):
            print(f"error: {error}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
