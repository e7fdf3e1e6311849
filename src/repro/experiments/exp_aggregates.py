"""Supplementary experiment — per-query aggregates (Section 7.2).

Section 7.2 describes the extension without measuring it; this
experiment does: a mixed workload (COUNT, SUM, MIN/MAX, AVG spread over
the SC queries) executed naively versus through the GB-MQO plan with
union-at-intermediates aggregation.
"""

from __future__ import annotations

import time

from repro.core.extensions import AggregateQuery, aggregates_by_columns
from repro.core.plan import naive_plan
from repro.engine.aggregation import AggregateSpec
from repro.experiments.harness import make_session
from repro.experiments.report import ExperimentResult
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem

#: Measure columns the aggregates read.
MEASURES = ("l_quantity", "l_extendedprice")


def build_workload() -> list[AggregateQuery]:
    """SC queries with rotating aggregate lists."""
    cycles = (
        (AggregateSpec.count_star(),),
        (AggregateSpec.count_star(), AggregateSpec("sum", MEASURES[0], "s")),
        (
            AggregateSpec("min", MEASURES[1], "lo"),
            AggregateSpec("max", MEASURES[1], "hi"),
        ),
        (AggregateSpec("avg", MEASURES[0], "mean"),),
    )
    return [
        AggregateQuery(frozenset([column]), cycles[i % len(cycles)])
        for i, column in enumerate(LINEITEM_SC_COLUMNS)
    ]


def run(rows: int = 150_000, repeats: int = 1) -> ExperimentResult:
    """Naive vs GB-MQO execution of the mixed-aggregate workload."""
    table = make_lineitem(rows)
    session = make_session(table)
    queries = build_workload()
    column_sets = [q.columns for q in queries]
    aggregates = aggregates_by_columns(queries)

    optimization = session.optimize(column_sets)

    def timed(plan):
        best = None
        run_out = None
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            run_out = session.execute(plan, aggregates=aggregates)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best, run_out

    plan_seconds, plan_run = timed(optimization.plan)
    naive_seconds, naive_run = timed(naive_plan(table.name, column_sets))

    result = ExperimentResult(
        experiment_id="Section 7.2 (supplementary)",
        title="Mixed-aggregate workload: naive vs GB-MQO",
        headers=(
            "Plan",
            "Time (s)",
            "Work (MB)",
            "Queries executed",
        ),
    )
    naive_metrics = naive_run.metrics.as_dict()
    plan_metrics = plan_run.metrics.as_dict()
    result.rows.append(
        (
            "naive",
            naive_seconds,
            naive_metrics["work"] / 1e6,
            naive_metrics["queries_executed"],
        )
    )
    result.rows.append(
        (
            "GB-MQO (union aggregates)",
            plan_seconds,
            plan_metrics["work"] / 1e6,
            plan_metrics["queries_executed"],
        )
    )
    result.notes.append(
        "intermediates carry the union of their subtree's aggregates; "
        "AVG decomposed into SUM+COUNT and recombined on capture"
    )
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
