"""``lineitem_sc`` and ``sales_tc``: one query set, cold, through Session.

The end-to-end run times what an analyst waits for (fresh session +
``optimize`` + ``execute``) and ``execute`` alone on a reused plan.  The
traced run replays ``Session.execute`` by hand — ``Session.for_table``
→ ``optimize`` → ``lower`` → ``PhysicalPlan.check`` →
``PlanExecutor.execute_physical`` — with one benchmark-owned span per
call, then times the forced regimes, forced modes and baselines.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.api import Session
from repro.baselines.grouping_sets import CommercialGroupingSetsPlanner
from repro.core.optimizer import OptimizationResult
from repro.core.plan import PlanNode
from repro.engine.dictcache import DictionaryCache, encode_column
from repro.engine.executor import ExecutionResult, PlanExecutor
from repro.engine.table import Table
from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.physical.plan import (
    CacheRead,
    HashGroupBy,
    Materialize,
    PhysicalPlan,
    Reaggregate,
    SortGroupBy,
)
from repro.workloads.queries import single_column_queries, two_column_queries
from repro.workloads.sales import SALES_COLUMNS, make_sales
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem

from benchmarks.e2e.measure import Report, peak_rss_mb, rounds, timed
from benchmarks.e2e.oracle import Checker, Oracle
from benchmarks.e2e.spans import SpanRecorder, self_time_by_name

#: Worker threads of every parallel path: the machine's cores, no more.
PARALLELISM = os.cpu_count() or 1

#: Timed set-ups per end-to-end run (``setup_s`` summarizes them): as
#: many as fit in SETUP_SHARE of the measuring time, at least
#: SETUP_REPEATS.  The cheap set-ups (0.1 s) get twenty samples in a
#: 20 s run this way, not five.
SETUP_REPEATS = 5
SETUP_SHARE = 0.1

#: Repetitions of each secondary path (forced regimes, modes, baselines)
#: in the traced run.
TRACE_REPEATS = 3

#: Program operator kinds whose ``execute.<kind>`` spans are split out.
OP_KINDS = (
    "scan",
    "hash_group_by",
    "sort_group_by",
    "reaggregate",
    "materialize",
    "cache_read",
)

#: The layer spans ``Session.execute`` is made of, in call order.
EXECUTE_LAYERS = ("physical.lower", "analysis.verify", "engine.execute_physical")

Queries = list[frozenset[str]]

#: Base rows of ``lineitem_sc`` (TPC-H SF1 has 6M; ``--paper-scale``).
LINEITEM_ROWS = 500_000


@dataclass(frozen=True)
class PlanWorkload:
    """One table, one query set."""

    name: str
    rows: int
    make_table: Callable[[int, int], Table]
    queries: Queries
    #: (dense int, string, near-unique) columns for the encode timings.
    encode_columns: tuple[str, str, str]


def lineitem_sc(rows_scale: float) -> PlanWorkload:
    return PlanWorkload(
        name="lineitem_sc",
        rows=max(int(LINEITEM_ROWS * rows_scale), 1_000),
        make_table=lambda rows, seed: make_lineitem(rows, seed=seed),
        queries=single_column_queries(LINEITEM_SC_COLUMNS),
        encode_columns=("l_shipdate", "l_shipmode", "l_orderkey"),
    )


def sales_tc(rows_scale: float) -> PlanWorkload:
    return PlanWorkload(
        name="sales_tc",
        rows=max(int(250_000 * rows_scale), 1_000),
        make_table=lambda rows, seed: make_sales(rows, seed=seed),
        queries=two_column_queries(SALES_COLUMNS),
        encode_columns=("order_date", "channel", "customer_id"),
    )


def fresh_session(table: Table, seed: int, **kwargs: object) -> Session:
    """A cold session: sampled statistics, nothing memoized."""
    return Session.for_table(table, statistics="sampled", seed=seed, **kwargs)


# -- end-to-end run --------------------------------------------------------------


def run_end_to_end(
    workload: PlanWorkload, report: Report, checker: Checker, seconds: float
) -> None:
    queries = workload.queries
    table = None
    for _ in rounds(seconds * SETUP_SHARE, SETUP_REPEATS):
        table = None  # free the previous copy before building the next
        generate_s, table = timed(
            lambda: workload.make_table(workload.rows, report.seed)
        )
        encode_s, _ = timed(table.build_dictionaries)
        report.add("setup_s", generate_s + encode_s)
    session = fresh_session(table, report.seed)
    session.execute(session.optimize(queries).plan)  # untimed warm-up

    result = None
    for _ in rounds(seconds):
        result = None
        started = monotonic()
        session = fresh_session(table, report.seed)
        plan = session.optimize(queries).plan
        planned = monotonic()
        result = session.execute(plan)
        finished = monotonic()
        report.add("batch_s", finished - started)
        report.add("exec_s", finished - planned)
    report.add(
        "rows_per_s", table.num_rows * len(queries) / report.value("batch_s")
    )
    report.add("work_bytes", result.metrics.work)
    # Read before the oracle runs, so its arrays never count.
    report.add("peak_rss_mb", peak_rss_mb())
    oracle_s, expected = timed(
        lambda: Oracle.for_table(table, table.column_names).expected(queries)
    )
    report.info.update(
        rows=table.num_rows, queries=len(queries), oracle_s=oracle_s
    )
    checker.check("batch", result.results, expected)


# -- traced run: shared with the session workload --------------------------------


def executor_for(
    session: Session, dictionaries: DictionaryCache | None = None
) -> PlanExecutor:
    """The executor ``Session.execute`` builds (feedback off, serial)."""
    return PlanExecutor(
        session.catalog,
        session.base_table,
        use_indexes=session.use_indexes,
        estimator=session.estimator,
        metrics=session.metrics,
        result_cache=session.result_cache,
        dictionary_cache=dictionaries,
    )


@dataclass
class Replay:
    """One hand-replayed batch: what each layer handed on, and how long
    each took (``seconds`` is keyed by the layer's span name)."""

    optimization: OptimizationResult
    physical: PhysicalPlan
    diagnostics: int
    result: ExecutionResult
    dictionaries: DictionaryCache
    seconds: dict[str, float]


def replay_batch(
    recorder: SpanRecorder, session: Session, queries: Queries
) -> Replay:
    """``optimize`` → ``lower`` → ``check`` → ``execute_physical``."""
    with recorder.span("core.optimize") as optimize:
        optimization = session.optimize(queries)
    with recorder.span("physical.lower") as lower:
        physical = session.lower(optimization.plan)
    dictionaries = DictionaryCache()
    executor = executor_for(session, dictionaries)
    with recorder.span("analysis.verify") as verify:
        diagnostics = physical.check(executor.analysis_context())
    with recorder.span("engine.execute_physical") as execute:
        result = executor.execute_physical(physical)
    spans = (optimize, lower, verify, execute)
    return Replay(
        optimization,
        physical,
        len(diagnostics),
        result,
        dictionaries,
        {span.name: span.duration for span in spans},
    )


def force_strategy(physical: PhysicalPlan, strategy: str) -> PhysicalPlan:
    """Every grouping operator rewritten to one regime.

    Same rewrite as ``benchmarks/bench_physical.py``, kept here so the
    package stays self-contained when that suite is retired.
    """
    forced = []
    for op in physical.operators:
        if isinstance(op, Reaggregate):
            forced.append(dataclasses.replace(op, strategy=strategy))
        elif isinstance(op, (HashGroupBy, SortGroupBy)):
            fields = {
                f.name: getattr(op, f.name)
                for f in dataclasses.fields(op)
                if f.name != "input_sorted"
            }
            cls = HashGroupBy if strategy == "hash" else SortGroupBy
            forced.append(cls(**fields))
        else:
            forced.append(op)
    return dataclasses.replace(physical, operators=tuple(forced))


def add_replay_counts(report: Report, replay: Replay) -> None:
    """Counts of one replayed batch; a session's batches accumulate."""
    telemetry = replay.optimization.telemetry
    ops = replay.physical.operators
    metrics = replay.result.metrics
    dictionary_stats = replay.dictionaries.stats()
    counts = {
        "core.merges_accepted": telemetry.merges_accepted,
        "core.candidates_considered": telemetry.candidates_considered,
        "core.pairs_pruned": telemetry.pairs_pruned_subsumption
        + telemetry.pairs_pruned_monotonicity,
        "costmodel.calls": telemetry.cost_model_calls,
        "physical.operators": len(ops),
        "physical.hash_ops": sum(
            isinstance(op, HashGroupBy)
            or (isinstance(op, Reaggregate) and op.strategy == "hash")
            for op in ops
        ),
        "physical.sort_ops": sum(
            isinstance(op, SortGroupBy)
            or (isinstance(op, Reaggregate) and op.strategy == "sort")
            for op in ops
        ),
        "physical.reaggregate_ops": sum(isinstance(op, Reaggregate) for op in ops),
        "physical.materialize_ops": sum(isinstance(op, Materialize) for op in ops),
        "physical.cache_read_ops": sum(isinstance(op, CacheRead) for op in ops),
        "analysis.diagnostics": replay.diagnostics,
        "engine.bytes_scanned": metrics.bytes_scanned,
        "engine.bytes_materialized": metrics.bytes_materialized,
        "engine.rows_scanned": metrics.rows_scanned,
        "engine.group_by_ops": metrics.group_by_ops,
        "engine.dictcache.hits": dictionary_stats["hits"],
        "engine.dictcache.misses": dictionary_stats["misses"],
    }
    for name, value in counts.items():
        report.accumulate(name, value)
    report.samples["engine.peak_temp_bytes"] = [
        max(
            report.samples.get("engine.peak_temp_bytes", [0.0])[0],
            replay.result.peak_temp_bytes,
        )
    ]


def add_program_span_metrics(report: Report, tracer: Tracer) -> None:
    """Per-operator-kind self time from the program's ``execute.<op>``
    spans; a kind that never ran is left out."""
    by_name = self_time_by_name(tracer.spans)
    for kind in OP_KINDS:
        if f"execute.{kind}" in by_name:
            report.add(f"engine.op.{kind}_s", by_name[f"execute.{kind}"])
    report.add(
        "engine.temps_materialized",
        sum(span.name == "execute.materialize" for span in tracer.spans),
    )


def edge_cost_us(session: Session, queries: Queries) -> float:
    """Mean microseconds per uncached costing call on a fresh coster.

    Costs every query from R (spooled and not) and from the union of
    itself and its successor — the edge shapes the search asks for.
    """
    coster = session.coster()
    started = monotonic()
    for query, successor in zip(queries, queries[1:] + queries[:1]):
        node = PlanNode(query)
        coster.edge_cost(None, node, False)
        coster.edge_cost(None, node, True)
        if query != successor:
            coster.edge_cost(PlanNode(query | successor), node, False)
    elapsed = monotonic() - started
    return elapsed / max(coster.optimizer_calls, 1) * 1e6


def add_encode_timings(
    report: Report, table: Table, columns: Sequence[str]
) -> None:
    for name, column in zip(("int", "str", "nearunique"), columns):
        seconds, _ = timed(lambda: encode_column(table[column]))
        report.add(f"engine.dictcache.encode_{name}_s", seconds)


# -- traced run ------------------------------------------------------------------


def run_traced(
    workload: PlanWorkload,
    report: Report,
    checker: Checker,
    seconds: float,
    recorder: SpanRecorder,
) -> None:
    queries = workload.queries
    seed = report.seed
    with recorder.span("workloads.generate") as generate:
        table = workload.make_table(workload.rows, seed)
    with recorder.span("engine.dictcache.build") as build:
        table.build_dictionaries()
    report.add("workloads.generate_s", generate.duration)
    report.add("engine.dictcache.build_s", build.duration)
    with recorder.span("bench.oracle"):
        expected = Oracle.for_table(table, table.column_names).expected(queries)
    report.info.update(
        rows=table.num_rows, queries=len(queries), parallelism=PARALLELISM
    )

    def check(label: str, result: ExecutionResult) -> None:
        with recorder.span("bench.check"):
            checker.check(label, result.results, expected)

    def batch(**kwargs: object) -> ExecutionResult:
        session = fresh_session(table, seed, **kwargs)
        return session.execute(session.optimize(queries).plan)

    def time_path(
        label: str,
        fn: Callable[[], ExecutionResult],
        repeats: int = TRACE_REPEATS,
    ) -> tuple[list[float], ExecutionResult]:
        """Time ``fn`` ``repeats`` times; check its last result."""
        samples = []
        result = None
        for _ in rounds(0.0, repeats):
            result = None
            with recorder.span(label) as span:
                result = fn()
            samples.append(span.duration)
        check(label, result)
        return samples, result

    with recorder.span("bench.warmup"):
        batch()
    untraced: list[float] = []
    replayed: list[float] = []
    executes: list[float] = []
    replay = session = None
    # Half the budget goes to untraced/replayed batch pairs, the rest to
    # the fixed repetitions of the secondary paths below.
    for _ in rounds(seconds / 2, 2):
        replay = session = None
        with recorder.span("bench.untraced_batch") as span:
            batch()
        untraced.append(span.duration)
        with recorder.span("bench.replayed_batch") as span:
            with recorder.span("stats.for_table"):
                session = fresh_session(table, seed)
            replay = replay_batch(recorder, session, queries)
        replayed.append(span.duration)
        report.add("stats.create_s", session.estimator.creation_seconds)
        report.add("core.optimize_cold_s", replay.seconds["core.optimize"])
        for layer in EXECUTE_LAYERS:
            report.add(f"{layer}_s", replay.seconds[layer])
        executes.append(sum(replay.seconds[layer] for layer in EXECUTE_LAYERS))
    check("replay", replay.result)
    add_replay_counts(report, replay)
    optimization = replay.optimization
    report.add("core.plan_cost", optimization.cost)
    report.add(
        "core.plan_cost_vs_naive", optimization.cost / optimization.naive_cost
    )
    # The bases of every ratio below: the untraced batch, and what
    # ``Session.execute`` does with the plan (lower + verify + execute).
    batch_s = statistics.median(untraced)
    exec_s = statistics.median(executes)
    report.add(
        "obs.bench_trace_overhead_frac",
        statistics.median(replayed) / batch_s - 1.0,
    )

    plan, physical = optimization.plan, replay.physical
    for _ in rounds(0.0, TRACE_REPEATS):
        with recorder.span("core.optimize_warm") as span:
            session.optimize(queries)
        report.add("core.optimize_warm_s", span.duration)

    for strategy in ("hash", "sort"):
        forced = force_strategy(physical, strategy)
        report.samples[f"engine.exec_all_{strategy}_s"], _ = time_path(
            f"engine.execute_all_{strategy}",
            lambda: executor_for(session).execute_physical(forced),
        )
    report.add(
        "costmodel.grouping_regret",
        report.median("engine.execute_physical_s")
        / min(
            report.median("engine.exec_all_hash_s"),
            report.median("engine.exec_all_sort_s"),
        ),
    )
    for mode in ("serial", "wavefront", "morsel"):
        report.samples[f"engine.exec_{mode}_s"], _ = time_path(
            f"engine.execute_{mode}",
            lambda: session.execute(plan, parallelism=PARALLELISM, mode=mode),
        )
    report.samples["engine.exec_par_s"], _ = time_path(
        "engine.execute_parallel",
        lambda: session.execute(plan, parallelism=PARALLELISM),
    )
    registry = MetricsRegistry()
    time_path(
        "engine.execute_morsel_counted",
        lambda: fresh_session(table, seed, metrics=registry).execute(
            plan, parallelism=PARALLELISM, mode="morsel"
        ),
        repeats=1,
    )
    report.add(
        "engine.morsel.batches",
        registry.value("repro_executor_morsel_batches_total", relation=table.name),
    )
    report.add(
        "engine.morsel.morsels",
        registry.value("repro_executor_morsels_total", relation=table.name),
    )

    report.samples["baselines.naive_s"], naive = time_path(
        "baselines.naive", lambda: session.run_naive(queries)
    )
    naive_s = report.median("baselines.naive_s")
    report.add("baselines.speedup_vs_naive", naive_s / exec_s)
    report.add("baselines.batch_speedup_vs_naive", naive_s / batch_s)
    report.add("baselines.naive_work_bytes", naive.metrics.work)
    report.add(
        "baselines.work_ratio_vs_naive",
        replay.result.metrics.work / naive.metrics.work,
    )
    planner = CommercialGroupingSetsPlanner(session.catalog, session.base_table)
    # One repetition: on SC inputs this baseline materializes the
    # 12-column union first and takes several times the naive plan.
    report.samples["baselines.grouping_sets_s"], _ = time_path(
        "baselines.grouping_sets", lambda: planner.execute(queries), repeats=1
    )
    report.add(
        "baselines.speedup_vs_grouping_sets",
        report.median("baselines.grouping_sets_s") / exec_s,
    )

    tracers: list[Tracer] = []

    def program_traced_batch() -> ExecutionResult:
        tracers.append(Tracer())
        return batch(tracer=tracers[-1])

    traced, _ = time_path("obs.program_traced_batch", program_traced_batch, 2)
    report.add("obs.tracer_overhead_frac", statistics.median(traced) / batch_s - 1.0)
    add_program_span_metrics(report, tracers[-1])

    with recorder.span("costmodel.edge_cost_loop"):
        report.add(
            "costmodel.edge_cost_us",
            edge_cost_us(fresh_session(table, seed), queries),
        )
    with recorder.span("engine.dictcache.encode"):
        add_encode_timings(report, table, workload.encode_columns)
