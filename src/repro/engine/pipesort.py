"""PipeSort shared-computation operators (related work [2,4]).

These are the physical operators commercial GROUPING SETS plans use to
share work when the requested groupings overlap (Section 6.1's CONT
scenario): arrange the groupings into *pipelines* — chains ordered by
set inclusion — so one sort of the input computes every grouping in the
chain in a single pass.

Pipeline construction assigns each grouping to a chain via minimum-cost
bipartite matching (scipy's Hungarian algorithm), level by level, which
is the assignment step of the original PipeSort algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table

#: Matching cost for an infeasible (non-subset) pairing.
_INFEASIBLE = 10**9


@dataclass
class Pipeline:
    """One sort pipeline: groupings ordered largest to smallest.

    ``sort_order`` arranges the columns of the largest grouping so every
    grouping in the chain is a prefix of it.
    """

    chain: list[frozenset[str]] = field(default_factory=list)

    def sort_order(self) -> tuple[str, ...]:
        order: list[str] = []
        covered: frozenset[str] = frozenset()
        for grouping in reversed(self.chain):  # smallest first
            order.extend(sorted(grouping - covered))
            covered = grouping
        return tuple(order)


def build_pipelines(queries: list[frozenset[str]]) -> list[Pipeline]:
    """Partition groupings into inclusion chains with minimal sorts.

    Groupings are processed in decreasing size; at each size level the
    Hungarian algorithm matches them to existing pipeline tails (a
    grouping may only extend a tail it is a strict subset of), and the
    unmatched start new pipelines.
    """
    ordered = sorted(set(queries), key=lambda q: (-len(q), sorted(q)))
    pipelines: list[Pipeline] = []
    index = 0
    while index < len(ordered):
        size = len(ordered[index])
        stop = index
        while stop < len(ordered) and len(ordered[stop]) == size:
            stop += 1
        level = ordered[index:stop]
        index = stop
        tails = [p.chain[-1] for p in pipelines]
        if not tails:
            for query in level:
                pipelines.append(Pipeline([query]))
            continue
        # Cost matrix: rows = level queries, cols = tails + "new pipeline"
        # slots (one per query, cost 1 to discourage but allow them).
        n_q, n_t = len(level), len(tails)
        cost = np.full((n_q, n_t + n_q), float(_INFEASIBLE))
        for i, query in enumerate(level):
            for j, tail in enumerate(tails):
                if query < tail:
                    cost[i, j] = 0.0
            cost[i, n_t + i] = 1.0  # start a new pipeline
        rows, cols = linear_sum_assignment(cost)
        for i, j in zip(rows, cols):
            if j < n_t and cost[i, j] < _INFEASIBLE:
                pipelines[j].chain.append(level[i])
            else:
                pipelines.append(Pipeline([level[i]]))
    return pipelines


@dataclass
class SharedSortResult:
    """Results of a PipeSort execution."""

    results: dict[frozenset[str], Table] = field(default_factory=dict)
    pipelines: list[Pipeline] = field(default_factory=list)
    sorts_performed: int = 0
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)


def pipesort(
    table: Table,
    queries: list[frozenset[str]],
    aggregates: list[AggregateSpec] | None = None,
    metrics: ExecutionMetrics | None = None,
) -> SharedSortResult:
    """Execute a set of Group By queries with shared sorts.

    Each pipeline sorts the input once on its composite order, then
    computes every grouping in its chain with ordered (boundary
    detection) aggregation — the "shared sort" of the literature.
    """
    aggregates = aggregates or [AggregateSpec.count_star("cnt")]
    result = SharedSortResult(metrics=metrics or ExecutionMetrics())
    result.pipelines = build_pipelines(queries)
    for pipeline in result.pipelines:
        order = pipeline.sort_order()
        needed = list(order) + [
            a.column for a in aggregates if a.column is not None
        ]
        source = table.project(list(dict.fromkeys(needed)))
        sorted_table = _sort_by_codes(source, order)
        result.metrics.record_sort()
        # One full row-store scan of the input per pipeline (the sort).
        result.metrics.record_scan(table.num_rows, table.touch())
        result.sorts_performed += 1
        for grouping in pipeline.chain:
            keys = [c for c in order if c in grouping]
            # All groupings of a chain come out of the single sorted
            # pass, so only the pass over the sorted run is charged —
            # the "almost free" subsumed groupings of Section 6.1.
            result.metrics.record_scan(
                sorted_table.num_rows, sorted_table.touch(keys)
            )
            result.metrics.record_group_by()
            result.results[grouping] = group_by(
                sorted_table,
                keys,
                aggregates,
                name="pipe_" + "_".join(keys),
                metrics=None,
                assume_sorted=True,
            )
    return result


def _sort_by_codes(table: Table, order: tuple[str, ...]) -> Table:
    """Sort a table on ``order`` via combined dictionary codes.

    One argsort over a single int64 key is what a real sort operator's
    key-normalization achieves; falling back to per-column lexsort only
    when the composite domain overflows.
    """
    from repro.engine.aggregation import _combined_codes

    combined, _radix, _layout = _combined_codes(table, order)
    if combined is None:
        return table.sort_by(list(order))
    permutation = np.argsort(combined, kind="stable")
    return table.take(permutation)
