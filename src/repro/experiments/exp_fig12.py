"""Figure 12 — overhead of statistics creation (Section 6.7).

With sampled statistics (the realistic mode), each Group By the
optimizer costs creates one statistic over the shared sample.  The
overhead is the total statistics creation time of the production search
(binary-tree space) as a percentage of the running-time savings of the
GB-MQO plan over the naive plan.  For comparison, the statistics the
paper's setting creates — the eager loop with subsumption pruning
(:func:`repro.core.pruning.eager_search`), which costs every pair it
walks — are counted on a twin session.

Paper finding: 1-15%, shrinking as the dataset grows.
"""

from __future__ import annotations

from repro.core.optimizer import GbMqoOptimizer, OptimizerOptions
from repro.core.pruning import eager_search
from repro.experiments.harness import (
    aggregate_trace_note,
    make_session,
    run_comparison,
)
from repro.experiments.report import ExperimentResult
from repro.workloads.queries import single_column_queries, two_column_queries
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem


def run(
    rows_1g: int = 200_000,
    rows_10g: int = 600_000,
    repeats: int = 1,
) -> ExperimentResult:
    """Measure statistics time vs runtime savings on 1g/10g x SC/TC."""
    result = ExperimentResult(
        experiment_id="Figure 12",
        title="Statistics creation time vs running time saving",
        headers=(
            "Dataset",
            "#statistics",
            "#statistics (eager S)",
            "stats time (s)",
            "runtime saving (s)",
            "overhead %",
        ),
    )
    options = OptimizerOptions(binary_tree_only=True)
    scales = (("tpc-h 1g", rows_1g, 44), ("tpc-h 10g", rows_10g, 45))
    comparisons = []
    for name, rows, seed in scales:
        table = make_lineitem(rows, seed=seed)
        for workload in ("sc", "tc"):
            session = make_session(table, statistics="sampled")
            if workload == "sc":
                queries = single_column_queries(LINEITEM_SC_COLUMNS)
            else:
                queries = two_column_queries(LINEITEM_SC_COLUMNS)
            comparison = run_comparison(session, queries, options, repeats)
            comparisons.append(comparison)
            saving = comparison.naive_seconds - comparison.plan_seconds
            overhead = (
                100.0 * comparison.statistics_seconds / saving
                if saving > 0
                else float("inf")
            )
            twin = make_session(table, statistics="sampled")
            optimizer = GbMqoOptimizer(twin.coster(), options)
            eager_search(optimizer, twin.base_table, queries, subsumption=True)
            result.rows.append(
                (
                    f"{name} ({workload})",
                    len(getattr(session.estimator, "created_statistics", [])),
                    len(getattr(twin.estimator, "created_statistics", [])),
                    comparison.statistics_seconds,
                    saving,
                    overhead,
                )
            )
    result.notes.append(
        "paper: overhead 1-15%, smaller on the larger dataset; one shared "
        "sample serves all statistics"
    )
    result.notes.append(aggregate_trace_note(comparisons))
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
