"""In-memory columnar database engine.

This package is the substrate that stands in for the commercial DBMS used
in the paper's experiments.  It provides columnar tables, a catalog with
temporary-table storage accounting, physical operators (scan, filter,
project, hash/sort group-by, hash join, union-all, CUBE / ROLLUP /
GROUPING SETS), covering indexes, the PipeSort shared-sort
operators, an executor for GB-MQO logical plans, and a SQL text generator
for the client-side implementation described in Section 5.2 of the paper.
"""

from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionResult, PlanExecutor
from repro.engine.indexes import Index, IndexSpec
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table

__all__ = [
    "AggregateSpec",
    "Catalog",
    "ExecutionMetrics",
    "ExecutionResult",
    "Index",
    "IndexSpec",
    "PlanExecutor",
    "Table",
    "group_by",
]
