"""The naive baseline: every query computed directly from R.

This is the plan every speedup in the paper's Table 3 and Figures 9-14
is measured against, and the starting point of the GB-MQO search.  Like
every other execution path it runs through the physical layer: the
naive logical plan lowers to one Scan + grouping pipeline per query.
"""

from __future__ import annotations

from repro.core.plan import naive_plan
from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionResult, PlanExecutor


def run_naive(
    catalog: Catalog,
    base_table: str,
    queries: list[frozenset[str]],
    aggregates: list[AggregateSpec] | None = None,
    use_indexes: bool = True,
) -> ExecutionResult:
    """Execute the naive plan and return its results and metrics."""
    executor = PlanExecutor(
        catalog, base_table, aggregates=aggregates, use_indexes=use_indexes
    )
    return executor.execute(naive_plan(base_table, queries))
