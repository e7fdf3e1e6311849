"""``sales_session_cache``: one cached session, a table swap in the middle.

One ``Session(cache=True)`` answers seven batches over the first eight
sales columns — TC, SC (derivable from TC), TC again (exact hits), CONT
— then the base table is replaced, and SC, TC, SC run against the new
contents; a second swap puts the first table back.  Every result after
a swap is checked against the oracle of the *new* table, so a stale
serve is a failure.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable
from dataclasses import dataclass

from repro.api import Session
from repro.engine.executor import ExecutionResult
from repro.engine.table import Table
from repro.obs.tracer import Tracer
from repro.workloads.queries import (
    containment_workload,
    single_column_queries,
    two_column_queries,
)
from repro.workloads.sales import SALES_COLUMNS, make_sales

from benchmarks.e2e.measure import Report, peak_rss_mb, rounds, timed
from benchmarks.e2e.oracle import Canonical, Checker, Oracle
from benchmarks.e2e.plan_workloads import (
    SETUP_REPEATS,
    SETUP_SHARE,
    TRACE_REPEATS,
    Queries,
    Replay,
    add_program_span_metrics,
    add_replay_counts,
    fresh_session,
    replay_batch,
)
from benchmarks.e2e.spans import SpanRecorder

COLUMNS = SALES_COLUMNS[:8]
TC = two_column_queries(COLUMNS)
SC = single_column_queries(COLUMNS)
CONT = containment_workload(COLUMNS[:3])

#: The session: (label, queries) batches; None is the table swap.  The
#: label doubles as the ``cache.<label>_batch_s`` metric where declared.
SEQUENCE: tuple[tuple[str, Queries] | None, ...] = (
    ("cold", TC),
    ("derived", SC),
    ("exact", TC),
    ("cont", CONT),
    None,
    ("post_swap_sc", SC),
    ("post_invalidation", TC),
    ("post_swap_exact", SC),
    None,
)
BATCH_METRICS = ("cold", "derived", "exact", "post_invalidation")
QUERIES_ANSWERED = sum(len(step[1]) for step in SEQUENCE if step is not None)

#: Seed offset of the second table, so A and B differ for every seed.
SECOND_TABLE_SEED = 1_000_003


@dataclass
class Batch:
    """One batch of a session run."""

    label: str
    seconds: float
    exec_seconds: float
    result: ExecutionResult
    #: Whether the batch ran after the first swap (table B) or before.
    on_second_table: bool
    #: Bytes resident in the result cache once the batch finished.
    cache_bytes: int


@dataclass
class SessionRun:
    """One pass over SEQUENCE."""

    batches: list[Batch]
    swap_seconds: list[float]
    #: Cache entries the two swaps dropped (resident before minus after).
    invalidated_entries: int

    @property
    def exec_seconds(self) -> float:
        return sum(batch.exec_seconds for batch in self.batches)

    @property
    def work_bytes(self) -> int:
        return sum(batch.result.metrics.work for batch in self.batches)


#: Runs one batch on a session: (session, queries) -> (exec seconds, result).
BatchRunner = Callable[[Session, Queries], tuple[float, ExecutionResult]]


def optimized_batch(
    session: Session, queries: Queries
) -> tuple[float, ExecutionResult]:
    plan = session.optimize(queries).plan
    return timed(lambda: session.execute(plan))


def naive_batch(
    session: Session, queries: Queries
) -> tuple[float, ExecutionResult]:
    return timed(lambda: session.run_naive(queries))


def run_session(
    tables: tuple[Table, Table],
    session: Session,
    run_batch: BatchRunner = optimized_batch,
) -> SessionRun:
    """Drive SEQUENCE on ``session`` (which starts on ``tables[0]``)."""
    run = SessionRun([], [], 0)
    for step in SEQUENCE:
        if step is None:
            swap_to = tables[1] if not run.swap_seconds else tables[0]
            resident = session.cache_stats().get("entries", 0)
            seconds, _ = timed(lambda: session.catalog.replace_table(swap_to))
            run.swap_seconds.append(seconds)
            run.invalidated_entries += resident - session.cache_stats().get(
                "entries", 0
            )
            continue
        label, queries = step
        seconds, (exec_seconds, result) = timed(
            lambda: run_batch(session, queries)
        )
        run.batches.append(
            Batch(
                label,
                seconds,
                exec_seconds,
                result,
                on_second_table=len(run.swap_seconds) == 1,
                cache_bytes=session.cache_stats().get("bytes", 0),
            )
        )
    return run


def build_tables(rows: int, seed: int) -> tuple[Table, Table]:
    return (
        make_sales(rows, seed=seed),
        make_sales(rows, seed=seed + SECOND_TABLE_SEED),
    )


def encode_tables(tables: tuple[Table, Table]) -> None:
    for table in tables:
        table.build_dictionaries()


Expected = tuple[dict[frozenset[str], Canonical], dict[frozenset[str], Canonical]]


def expected_results(tables: tuple[Table, Table]) -> Expected:
    """Oracle results over the first table and over the second."""
    first, second = (
        Oracle.for_table(table, COLUMNS).expected(TC + SC) for table in tables
    )
    return first, second


def check_session(
    checker: Checker, label: str, run: SessionRun, expected: Expected
) -> None:
    """Every batch against the oracle of the table it ran on."""
    steps = (step for step in SEQUENCE if step is not None)
    for batch, (_, queries) in zip(run.batches, steps):
        oracle = expected[1] if batch.on_second_table else expected[0]
        wanted = {query: oracle[query] for query in queries}
        checker.check(f"{label}.{batch.label}", batch.result.results, wanted)


#: Rows of each session table.  Small on purpose: at 300k rows the two
#: cold TC batches (hash group-bys missing the CPU cache) were 85% of the
#: session and made it the noisiest workload; at 100k the session is
#: 45% planning and cache service and spreads half as much.
SESSION_ROWS = 100_000


def rows_for(rows_scale: float) -> int:
    return max(int(SESSION_ROWS * rows_scale), 1_000)


def run_end_to_end(
    rows_scale: float, report: Report, checker: Checker, seconds: float
) -> None:
    tables = None
    for _ in rounds(seconds * SETUP_SHARE, SETUP_REPEATS):
        tables = None
        generate_s, tables = timed(
            lambda: build_tables(rows_for(rows_scale), report.seed)
        )
        encode_s, _ = timed(lambda: encode_tables(tables))
        report.add("setup_s", generate_s + encode_s)

    def session_run() -> SessionRun:
        session = fresh_session(tables[0], report.seed, cache=True)
        return run_session(tables, session)

    session_run()  # untimed warm-up
    run = None
    for _ in rounds(seconds):
        run = None
        wall, run = timed(session_run)
        report.add("batch_s", wall)
        report.add("exec_s", run.exec_seconds)
    report.add(
        "rows_per_s",
        tables[0].num_rows * QUERIES_ANSWERED / report.value("batch_s"),
    )
    report.add("work_bytes", run.work_bytes)
    # Read before the oracle runs, so its arrays never count.
    report.add("peak_rss_mb", peak_rss_mb())
    oracle_s, expected = timed(lambda: expected_results(tables))
    report.info.update(
        rows=tables[0].num_rows, queries=QUERIES_ANSWERED, oracle_s=oracle_s
    )
    check_session(checker, "session", run, expected)


def run_traced(
    rows_scale: float,
    report: Report,
    checker: Checker,
    seconds: float,
    recorder: SpanRecorder,
) -> None:
    seed = report.seed
    with recorder.span("workloads.generate") as generate:
        tables = build_tables(rows_for(rows_scale), seed)
    with recorder.span("engine.dictcache.build") as build:
        encode_tables(tables)
    report.add("workloads.generate_s", generate.duration)
    report.add("engine.dictcache.build_s", build.duration)
    with recorder.span("bench.oracle"):
        expected = expected_results(tables)
    report.info.update(rows=tables[0].num_rows, queries=QUERIES_ANSWERED)

    def time_sessions(
        label: str,
        make_session: Callable[[], Session],
        run_batch: BatchRunner = optimized_batch,
    ) -> tuple[list[float], SessionRun]:
        """TRACE_REPEATS fresh sessions; (walls, the last run, checked)."""
        walls, run = [], None
        for _ in rounds(0.0, TRACE_REPEATS):
            run = None
            with recorder.span(label) as span:
                run = run_session(tables, make_session(), run_batch)
            walls.append(span.duration)
        with recorder.span("bench.check"):
            check_session(checker, label, run, expected)
        return walls, run

    def cached_session(**kwargs: object) -> Session:
        return fresh_session(tables[0], seed, cache=True, **kwargs)

    with recorder.span("bench.warmup"):
        run_session(tables, cached_session())
    untraced: list[float] = []
    replayed: list[float] = []
    session = run = None
    replays: list[Replay] = []

    def replayed_batch(
        session: Session, queries: Queries
    ) -> tuple[float, ExecutionResult]:
        replays.append(replay_batch(recorder, session, queries))
        return replays[-1].seconds["engine.execute_physical"], replays[-1].result

    # Half the budget goes to untraced/replayed session pairs, the rest
    # to the fixed repetitions of the other sessions below.
    for _ in rounds(seconds / 2):
        session = run = None
        replays.clear()
        with recorder.span("bench.untraced_session") as span:
            run_session(tables, cached_session())
        untraced.append(span.duration)
        with recorder.span("bench.replayed_session") as span:
            with recorder.span("stats.for_table"):
                session = cached_session()
            run = run_session(tables, session, replayed_batch)
        replayed.append(span.duration)
        by_label = {batch.label: batch for batch in run.batches}
        for label in BATCH_METRICS:
            report.add(f"cache.{label}_batch_s", by_label[label].seconds)
        report.add("cache.replace_table_s", statistics.median(run.swap_seconds))
        # The third batch repeats the first's query set on the same
        # session, so its search runs on a warm coster.
        report.add("core.optimize_cold_s", replays[0].seconds["core.optimize"])
        report.add("core.optimize_warm_s", replays[2].seconds["core.optimize"])
        for layer in ("physical.lower", "analysis.verify", "engine.execute_physical"):
            report.add(
                f"{layer}_s", sum(replay.seconds[layer] for replay in replays)
            )
        report.add("stats.create_s", session.estimator.creation_seconds)
    with recorder.span("bench.check"):
        check_session(checker, "replay", run, expected)
    for replay in replays:
        add_replay_counts(report, replay)
    stats = session.cache_stats()
    served = stats["hits"] + stats["derived_hits"]
    for counter in ("hits", "derived_hits", "misses", "puts", "evictions"):
        report.add(f"cache.{counter}", stats[counter])
    report.add("cache.hit_ratio", served / (served + stats["misses"]))
    report.add("cache.bytes_peak", max(b.cache_bytes for b in run.batches))
    report.add("cache.invalidated_entries", run.invalidated_entries)
    batch_s = statistics.median(untraced)
    report.add(
        "obs.bench_trace_overhead_frac",
        statistics.median(replayed) / batch_s - 1.0,
    )

    report.samples["cache.off_session_s"], _ = time_sessions(
        "cache.off_session", lambda: fresh_session(tables[0], seed)
    )
    report.samples["baselines.naive_s"], naive = time_sessions(
        "baselines.naive_session", lambda: fresh_session(tables[0], seed), naive_batch
    )
    naive_s = report.median("baselines.naive_s")
    report.add("baselines.speedup_vs_naive", naive_s / run.exec_seconds)
    report.add("baselines.batch_speedup_vs_naive", naive_s / batch_s)
    report.add("baselines.naive_work_bytes", naive.work_bytes)
    report.add("baselines.work_ratio_vs_naive", run.work_bytes / naive.work_bytes)

    tracers: list[Tracer] = []

    def program_traced_session() -> Session:
        tracers.append(Tracer())
        return cached_session(tracer=tracers[-1])

    traced, _ = time_sessions("obs.program_traced_session", program_traced_session)
    report.add("obs.tracer_overhead_frac", statistics.median(traced) / batch_s - 1.0)
    add_program_span_metrics(report, tracers[-1])
