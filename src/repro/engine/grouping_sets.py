"""CUBE, ROLLUP and GROUPING SETS table operators.

These are the engine-level equivalents of the SQL constructs the paper
builds on.  CUBE computes every subset of its columns, each grouping
answered from its smallest already-computed superset (the standard
smallest-parent strategy of the datacube literature).  ROLLUP computes
the prefixes of its column order, each from the previous one.
GROUPING SETS computes an explicit list of groupings, either naively or
with PipeSort sharing.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from repro.engine.aggregation import (
    AggregateSpec,
    answer_table,
    group_by,
    merge_specs,
    state_specs,
)
from repro.engine.metrics import ExecutionMetrics
from repro.engine.pipesort import pipesort
from repro.engine.table import Table
from repro.engine.types import SchemaError


def _default_aggregates(
    aggregates: Sequence[AggregateSpec] | None,
) -> list[AggregateSpec]:
    return list(aggregates) if aggregates else [AggregateSpec.count_star("cnt")]


def cube(
    table: Table,
    columns: Sequence[str],
    aggregates: Sequence[AggregateSpec] | None = None,
    metrics: ExecutionMetrics | None = None,
    include_grand_total: bool = False,
) -> dict[frozenset[str], Table]:
    """Compute the full datacube over ``columns``.

    Every non-empty subset (plus the grand total when requested) is
    computed from its smallest already-computed strict superset, so only
    the top grouping scans the input table: groupings carry the
    aggregates' state columns, merged from the superset's, and each
    result is finalized into the aggregates asked for.

    Returns:
        Mapping of grouping column set to its result table.
    """
    aggregates = _default_aggregates(aggregates)
    states = cube_states(
        table, columns, state_specs(aggregates), metrics, include_grand_total
    )
    return {
        grouping: answer_table(result, sorted(grouping), aggregates)
        for grouping, result in states.items()
    }


def cube_states(
    table: Table,
    columns: Sequence[str],
    states: Sequence[AggregateSpec],
    metrics: ExecutionMetrics | None = None,
    include_grand_total: bool = False,
) -> dict[frozenset[str], Table]:
    """:func:`cube` before finalizing: every grouping holds the state
    columns ``states`` compute from ``table`` (named by their aliases),
    each merged from its smallest computed superset."""
    columns = list(columns)
    if len(columns) > 16:
        raise SchemaError("cube over more than 16 columns is not practical")
    merges = merge_specs(states)
    results: dict[frozenset[str], Table] = {}
    top = frozenset(columns)
    results[top] = group_by(
        table, sorted(top), states, name="cube_top", metrics=metrics
    )
    for size in range(len(columns) - 1, 0, -1):
        for subset in combinations(sorted(columns), size):
            grouping = frozenset(subset)
            parents = [q for q in results if grouping < q]
            parent = min(parents, key=lambda q: results[q].num_rows)
            results[grouping] = group_by(
                results[parent],
                sorted(grouping),
                merges,
                name="cube_" + "_".join(sorted(grouping)),
                metrics=metrics,
            )
    if include_grand_total:
        smallest = min(results.values(), key=lambda t: t.num_rows)
        results[frozenset()] = group_by(
            smallest, [], merges, name="cube_total", metrics=metrics
        )
    return results


def rollup(
    table: Table,
    order: Sequence[str],
    aggregates: Sequence[AggregateSpec] | None = None,
    metrics: ExecutionMetrics | None = None,
) -> dict[frozenset[str], Table]:
    """Compute ROLLUP(order): every non-empty prefix of ``order``.

    Each prefix is computed from the next longer one's state columns,
    so the input is scanned exactly once (the paper's ROLLUP A, B
    computes (A,B) and (A), but not (B)).
    """
    order = list(order)
    if not order:
        raise SchemaError("rollup needs at least one column")
    aggregates = _default_aggregates(aggregates)
    states = state_specs(aggregates)
    merges = merge_specs(states)
    current = group_by(
        table, order, states, name="rollup_top", metrics=metrics
    )
    results = {frozenset(order): answer_table(current, order, aggregates)}
    for i in range(len(order) - 1, 0, -1):
        current = group_by(
            current,
            order[:i],
            merges,
            name="rollup_" + "_".join(order[:i]),
            metrics=metrics,
        )
        results[frozenset(order[:i])] = answer_table(
            current, order[:i], aggregates
        )
    return results


def grouping_sets(
    table: Table,
    sets: Sequence[Sequence[str]],
    aggregates: Sequence[AggregateSpec] | None = None,
    metrics: ExecutionMetrics | None = None,
    strategy: str = "naive",
) -> dict[frozenset[str], Table]:
    """Compute an explicit list of groupings.

    Args:
        strategy: 'naive' runs each grouping against the table;
            'pipesort' shares sorts across chained groupings.
    """
    queries = [frozenset(s) for s in sets]
    aggregates = _default_aggregates(aggregates)
    if strategy == "pipesort":
        shared = pipesort(table, queries, aggregates, metrics=metrics)
        return shared.results
    if strategy != "naive":
        raise SchemaError(f"unknown grouping sets strategy {strategy!r}")
    results = {}
    for query in queries:
        results[query] = group_by(
            table,
            sorted(query),
            aggregates,
            name="gs_" + "_".join(sorted(query)),
            metrics=metrics,
        )
    return results
