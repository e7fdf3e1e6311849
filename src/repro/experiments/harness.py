"""Shared measurement harness for the Section 6 experiments.

Centralizes the one comparison every experiment needs — naive execution
vs. the GB-MQO plan on the same data — with consistent timing rules:

* dictionaries are built at load time (before any timed region);
* optimization time and execution time are reported separately, as in
  the paper;
* besides wall-clock, the deterministic ``work`` metric (bytes read +
  bytes written by the engine) is reported, since on an in-memory
  substrate wall-clock compresses the IO effects the paper measures on
  disk — `work` preserves their shape exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.api import Session
from repro.core.optimizer import OptimizationResult, OptimizerOptions
from repro.engine.executor import ExecutionResult
from repro.engine.table import Table


@dataclass
class Comparison:
    """Naive vs GB-MQO on one (table, workload) pair."""

    n_queries: int
    naive_seconds: float
    plan_seconds: float
    naive_work: int
    plan_work: int
    optimization: OptimizationResult
    execution: ExecutionResult
    naive_execution: ExecutionResult
    statistics_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        if self.plan_seconds <= 0:
            return float("inf")
        return self.naive_seconds / self.plan_seconds

    @property
    def work_ratio(self) -> float:
        if self.plan_work <= 0:
            return float("inf")
        return self.naive_work / self.plan_work

    @property
    def runtime_reduction(self) -> float:
        """Fraction of naive runtime saved (the paper's Figure 9/11 y-axis)."""
        if self.naive_seconds <= 0:
            return 0.0
        return 1.0 - self.plan_seconds / self.naive_seconds

    @property
    def work_reduction(self) -> float:
        if self.naive_work <= 0:
            return 0.0
        return 1.0 - self.plan_work / self.naive_work

    def trace_summary(self) -> dict[str, object]:
        """Flat digest of the run for trace sinks and experiment notes.

        Combines the optimizer's search telemetry (``search.*`` keys)
        with the engine's counter snapshot (``execution.*`` keys, via
        :meth:`ExecutionMetrics.as_dict`).
        """
        summary: dict[str, object] = {
            "n_queries": self.n_queries,
            "plan_seconds": self.plan_seconds,
            "naive_seconds": self.naive_seconds,
        }
        for key, value in self.optimization.telemetry.as_dict().items():
            if key != "best_cost_trajectory":
                summary[f"search.{key}"] = value
        for key, value in self.execution.metrics.as_dict().items():
            summary[f"execution.{key}"] = value
        return summary


def trace_note(comparison: Comparison) -> str:
    """One-line search/execution digest for an experiment's notes."""
    metrics = comparison.execution.metrics
    return (
        f"trace: {comparison.optimization.telemetry.summary()}; engine work "
        f"{metrics.work / 1e6:.1f} MB over "
        f"{metrics.queries_executed} queries"
    )


def aggregate_trace_note(comparisons: list[Comparison]) -> str:
    """Digest of many runs (one note line instead of one per workload)."""
    if not comparisons:
        return "trace: no runs"
    totals: dict[str, float] = {}
    for comparison in comparisons:
        for key, value in comparison.trace_summary().items():
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0.0) + value
    n = len(comparisons)
    merges = int(totals.get("search.merges_accepted", 0))
    candidates = int(totals.get("search.candidates_considered", 0))
    calls = int(totals.get("search.cost_model_calls", 0))
    work_mb = totals.get("execution.work", 0.0) / 1e6
    return (
        f"trace: {n} runs, {merges} merges accepted / "
        f"{candidates} candidates, {calls} cost-model calls, "
        f"{work_mb:.1f} MB engine work"
    )


def make_session(
    table: Table,
    statistics: str = "sampled",
    sample_rows: int = 10_000,
    seed: int = 0,
    use_indexes: bool = True,
) -> Session:
    """Build a session with load-time dictionary encoding done."""
    table.build_dictionaries()
    return Session.for_table(
        table,
        statistics=statistics,
        sample_rows=sample_rows,
        seed=seed,
        use_indexes=use_indexes,
    )


def run_comparison(
    session: Session,
    queries: list[frozenset[str]],
    options: OptimizerOptions | None = None,
    repeats: int = 1,
    keep_results: bool = False,
) -> Comparison:
    """Optimize, then time GB-MQO execution against naive execution.

    Args:
        session: session over the base relation.
        queries: the input query set S.
        options: optimizer knobs.
        repeats: best-of-N timing to damp scheduler noise.
        keep_results: retain the per-query result tables.  Off by
            default — large workloads (e.g. TC over a wide table) hold
            gigabytes of result rows, and the experiments only need the
            timings; tests that compare outputs pass True.
    """
    optimization = session.optimize(queries, options)
    return time_plan(session, queries, optimization, repeats, keep_results)


def time_plan(
    session: Session,
    queries: list[frozenset[str]],
    optimization: OptimizationResult,
    repeats: int = 1,
    keep_results: bool = False,
) -> Comparison:
    """Time a plan from any search against naive execution."""
    stats_seconds = _statistics_seconds(session)

    plan_seconds, execution = _best_of(
        repeats, lambda: session.execute(optimization.plan)
    )
    naive_seconds, naive_execution = _best_of(
        repeats, lambda: session.run_naive(queries)
    )
    if not keep_results:
        execution.results = {}
        naive_execution.results = {}
    return Comparison(
        n_queries=len(set(map(frozenset, queries))),
        naive_seconds=naive_seconds,
        plan_seconds=plan_seconds,
        naive_work=naive_execution.metrics.work,
        plan_work=execution.metrics.work,
        optimization=optimization,
        execution=execution,
        naive_execution=naive_execution,
        statistics_seconds=stats_seconds,
    )


def verify_results_match(
    comparison: Comparison, queries: list[frozenset[str]]
) -> None:
    """Assert the plan produced exactly the naive results (used by tests)."""
    for query in set(map(frozenset, queries)):
        plan_rows = sorted(comparison.execution.results[query].to_rows())
        naive_rows = sorted(comparison.naive_execution.results[query].to_rows())
        if plan_rows != naive_rows:
            raise AssertionError(
                f"results differ for query {sorted(query)}"
            )


def _best_of(repeats: int, fn):
    best_seconds = None
    last_result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        last_result = fn()
        elapsed = time.perf_counter() - started
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, last_result


def _statistics_seconds(session: Session) -> float:
    estimator = session.estimator
    return float(getattr(estimator, "creation_seconds", 0.0))
