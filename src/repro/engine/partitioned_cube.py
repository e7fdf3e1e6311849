"""Partitioned-Cube (Ross & Srivastava, VLDB '97 — the paper's [16]).

The paper notes that once GB-MQO has chosen *which* queries to
materialize, physical operators from the datacube literature can
execute them.  Partitioned-Cube is the divide-and-conquer strategy for
inputs larger than memory:

1. if the input fits in memory, cube it directly;
2. otherwise partition it by value ranges of one attribute A — every
   grouping that *contains* A can then be computed per partition and
   concatenated, because groups never span partitions;
3. the groupings *without* A are a cube over one fewer column, computed
   recursively from the A-removed aggregation of the input (much
   smaller than the input).

Memory is simulated with a row budget, so tests can drive the recursion
deterministically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.aggregation import (
    AggregateSpec,
    answer_table,
    group_by,
    merge_specs,
    state_specs,
)
from repro.engine.grouping_sets import cube_states
from repro.engine.join import union_all
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table
from repro.engine.types import SchemaError


def choose_partition_attribute(table: Table, columns: Sequence[str]) -> str:
    """Pick the highest-cardinality column: most, smallest partitions."""
    return max(columns, key=lambda c: len(table.dictionary(c)[1]))


def partition_by_values(
    table: Table, column: str, n_partitions: int
) -> list[Table]:
    """Split rows into ``n_partitions`` disjoint value ranges of
    ``column`` (contiguous ranges of its dictionary codes)."""
    codes, values = table.dictionary(column)
    n_values = max(len(values), 1)
    n_partitions = max(1, min(n_partitions, n_values))
    boundaries = np.linspace(0, n_values, n_partitions + 1).astype(np.int64)
    partitions = []
    for i in range(n_partitions):
        mask = (codes >= boundaries[i]) & (codes < boundaries[i + 1])
        if mask.any():
            partitions.append(table.take(mask, name=f"{table.name}_p{i}"))
    return partitions


def partitioned_cube(
    table: Table,
    columns: Sequence[str],
    memory_rows: int,
    aggregates: Sequence[AggregateSpec] | None = None,
    metrics: ExecutionMetrics | None = None,
) -> dict[frozenset[str], Table]:
    """Compute the full cube of ``columns`` within a memory budget.

    Args:
        table: input relation.
        columns: cube dimensions.
        memory_rows: rows that "fit in memory"; larger inputs are
            partitioned.
        aggregates: aggregate list (COUNT(*) by default).  The recursion
            carries their state columns and finalizes every grouping
            at the end.
        metrics: execution counters.

    Returns:
        Mapping of every non-empty subset of ``columns`` to its result.
    """
    columns = list(columns)
    if not columns:
        raise SchemaError("partitioned_cube needs at least one column")
    aggregates = list(aggregates) if aggregates else [
        AggregateSpec.count_star("cnt")
    ]
    states = _partitioned_states(
        table, columns, memory_rows, state_specs(aggregates), metrics
    )
    return {
        grouping: answer_table(result, sorted(grouping), aggregates)
        for grouping, result in states.items()
    }


def _partitioned_states(
    table: Table,
    columns: list[str],
    memory_rows: int,
    states: Sequence[AggregateSpec],
    metrics: ExecutionMetrics | None,
) -> dict[frozenset[str], Table]:
    """The cube's state columns: ``states`` computes them from
    ``table`` (rows at the top, partial states when recursing)."""
    if table.num_rows <= memory_rows or len(columns) == 1:
        return cube_states(table, columns, states, metrics=metrics)

    attribute = choose_partition_attribute(table, columns)
    n_partitions = int(np.ceil(table.num_rows / memory_rows))
    partitions = partition_by_values(table, attribute, n_partitions)

    # Groupings containing the partition attribute: per-partition cubes
    # restricted to those groupings, concatenated.
    with_attribute: dict[frozenset[str], list[Table]] = {}
    for partition in partitions:
        local = cube_states(partition, columns, states, metrics=metrics)
        for grouping, result in local.items():
            if attribute in grouping:
                with_attribute.setdefault(grouping, []).append(result)
    results: dict[frozenset[str], Table] = {
        grouping: union_all(parts, name="pcube_" + "_".join(sorted(grouping)))
        if len(parts) > 1
        else parts[0]
        for grouping, parts in with_attribute.items()
    }

    # Groupings without it: recurse on the attribute-removed partial
    # states (strictly smaller input, one fewer dimension).
    remaining = [c for c in columns if c != attribute]
    merges = merge_specs(states)
    collapsed = group_by(
        results[frozenset(columns)],
        remaining,
        merges,
        name=f"{table.name}_minus_{attribute}",
        metrics=metrics,
    )
    results.update(
        _partitioned_states(collapsed, remaining, memory_rows, merges, metrics)
    )
    return results
