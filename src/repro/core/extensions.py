"""Handling different aggregates per query (Section 7.2).

The base problem assumes every query computes COUNT(*).  When queries
carry different aggregate lists (SUM(x), MIN(y), ...), merging two
sub-plans must decide what the shared intermediate node materializes:

* **union**: one copy of v1 ∪ v2 carrying the union of both aggregate
  lists — cheap to build, but the node gets wider;
* **split**: multiple copies of v1 ∪ v2, each carrying only one side's
  aggregates — narrow nodes, but built (and paid for) twice.

The paper leaves the choice cost-based; :func:`choose_merge_strategy`
implements exactly that comparison.

Execution takes the union strategy: :class:`QueryAggregates` gives each
grouping operator the union of the aggregates its subtree's queries
need, and projects every query's result back to the aliases it asked
for (:meth:`QueryAggregates.project`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.engine.aggregation import AggregateSpec
from repro.engine.table import Table
from repro.engine.types import SchemaError

#: Aggregates per query column set, as :func:`aggregates_by_columns`
#: builds them.
AggregatesByQuery = Mapping[frozenset[str], Sequence[AggregateSpec]]


@dataclass(frozen=True)
class AggregateQuery:
    """A Group By query with an explicit aggregate list."""

    columns: frozenset[str]
    aggregates: tuple[AggregateSpec, ...]

    @classmethod
    def count_star(cls, columns: frozenset[str]) -> "AggregateQuery":
        return cls(frozenset(columns), (AggregateSpec.count_star(),))


def union_aggregates(
    first: Sequence[AggregateSpec], second: Sequence[AggregateSpec]
) -> tuple[AggregateSpec, ...]:
    """Union of two aggregate lists, deduplicated by (func, column)."""
    seen = {}
    for spec in list(first) + list(second):
        seen.setdefault((spec.func, spec.column), spec)
    return tuple(seen.values())


def aggregate_width(aggregates: Sequence[AggregateSpec]) -> int:
    """Bytes per row the aggregate columns add to a materialized node."""
    return 8 * len(aggregates)


@dataclass(frozen=True)
class MergeStrategy:
    """Outcome of the cost-based union-vs-split decision."""

    kind: str  # 'union' or 'split'
    union_cost: float
    split_cost: float

    @property
    def chosen_cost(self) -> float:
        return min(self.union_cost, self.split_cost)


def choose_merge_strategy(
    q1: AggregateQuery,
    q2: AggregateQuery,
    estimator,
    base_rows: float | None = None,
) -> MergeStrategy:
    """Decide whether a merged node should carry unioned aggregates or
    be materialized once per aggregate list (Section 7.2).

    Cost accounting (bytes written + bytes re-read by the two children):

    * union: one node of width key_width + both aggregate widths;
    * split: two nodes, each of width key_width + one side's aggregates,
      but the base relation is scanned twice to build them.

    Args:
        q1, q2: the two queries being merged.
        estimator: cardinality estimator for the base relation.
        base_rows: override for the base relation row count.

    Returns:
        The chosen strategy with both candidate costs, so callers (and
        tests) can see the crossover.
    """
    union_columns = q1.columns | q2.columns
    rows = estimator.rows(union_columns)
    scan = float(
        base_rows if base_rows is not None else estimator.base_rows
    )
    key_width = estimator.row_width(union_columns)

    both = union_aggregates(q1.aggregates, q2.aggregates)
    union_width = key_width + aggregate_width(both)
    union_cost = scan + 2 * rows * union_width

    width_1 = key_width + aggregate_width(q1.aggregates)
    width_2 = key_width + aggregate_width(q2.aggregates)
    split_cost = 2 * scan + rows * width_1 + rows * width_2

    kind = "union" if union_cost <= split_cost else "split"
    return MergeStrategy(kind, union_cost, split_cost)


def queries_to_column_sets(
    queries: Sequence[AggregateQuery],
) -> list[frozenset[str]]:
    """Project aggregate queries to plain column sets for the optimizer."""
    return [query.columns for query in queries]


def aggregates_by_columns(
    queries: Sequence[AggregateQuery],
) -> dict[frozenset[str], tuple[AggregateSpec, ...]]:
    """Index the aggregate lists by query column set.

    Queries over one column set concatenate their lists (dropping
    repeats of an equal spec), so every requested alias survives —
    two aliases of one aggregate identity share its column at run time.
    """
    table: dict[frozenset[str], tuple[AggregateSpec, ...]] = {}
    for query in queries:
        known = table.get(query.columns, ())
        table[query.columns] = known + tuple(
            spec for spec in query.aggregates if spec not in known
        )
    return table


def canonical_alias(func: str, column: str | None) -> str:
    """The shared output column name of one aggregate identity."""
    if func == "count":
        return "cnt"
    return f"{func}_{column}"


def _canonical(func: str, column: str | None) -> AggregateSpec:
    return AggregateSpec(func, column, canonical_alias(func, column))


@dataclass(frozen=True)
class OutputColumn:
    """One requested result column, read from canonical columns.

    ``source`` is the canonical column it copies — for AVG the SUM,
    divided by the canonical COUNT named by ``count``.
    """

    alias: str
    source: str
    count: str | None = None


class QueryAggregates:
    """The aggregates each query computes, normalized for one plan run.

    A single list means every query computes it as given: every
    grouping carries the list and results are returned untouched.  A
    per-query mapping (:func:`aggregates_by_columns`) is normalized as
    Section 7.2 plans it:

    * aggregates are tracked by canonical identity (func, column), so
      two queries asking SUM(x) under different aliases share one
      column (:func:`canonical_alias`);
    * AVG is decomposed into SUM + COUNT, which re-aggregate
      distributively, and recombined when the result is projected;
    * a grouping carries the union of its subtree's needs
      (:meth:`union`), and each query's result is projected back to its
      keys and requested aliases (:meth:`project`).
    """

    def __init__(
        self, aggregates: Sequence[AggregateSpec] | AggregatesByQuery
    ) -> None:
        #: The one list every query computes, or None per query.
        self.shared: tuple[AggregateSpec, ...] | None = None
        #: Query column set -> canonical aggregates by identity.
        self.needs: dict[
            frozenset[str], dict[tuple[str, str | None], AggregateSpec]
        ] = {}
        #: Query column set -> its requested result columns, in order.
        self.outputs: dict[frozenset[str], tuple[OutputColumn, ...]] = {}
        if not isinstance(aggregates, Mapping):
            self.shared = tuple(aggregates)
            return
        for columns, specs in aggregates.items():
            needs: dict[tuple[str, str | None], AggregateSpec] = {}
            outputs = []
            for spec in specs:
                if spec.func == "avg":
                    parts = (
                        _canonical("sum", spec.column),
                        _canonical("count", None),
                    )
                else:
                    parts = (_canonical(spec.func, spec.column),)
                for part in parts:
                    needs[(part.func, part.column)] = part
                outputs.append(
                    OutputColumn(spec.alias, *(part.alias for part in parts))
                )
            self.needs[columns] = needs
            self.outputs[columns] = tuple(outputs)

    def union(
        self, queries: Iterable[frozenset[str]]
    ) -> tuple[AggregateSpec, ...]:
        """The aggregates a grouping whose subtree answers ``queries``
        carries: the shared list, or the union of the queries' needs in
        a deterministic order."""
        if self.shared is not None:
            return self.shared
        union: dict[tuple[str, str | None], AggregateSpec] = {}
        for columns in sorted(queries, key=sorted):
            union.update(self.needs[columns])
        return tuple(union.values())

    def project(self, columns: frozenset[str], table: Table) -> Table:
        """Query ``columns``'s result: ``table``'s keys plus the aliases
        the query asked for, each read from its canonical column."""
        if self.shared is not None:
            return table
        output: dict[str, np.ndarray] = {
            key: table[key] for key in sorted(columns)
        }
        for column in self.outputs[columns]:
            if column.alias in output:
                raise SchemaError(f"duplicate output column {column.alias!r}")
            values = table[column.source]
            if column.count is not None:
                values = values / np.maximum(table[column.count], 1)
            output[column.alias] = values
        return Table.wrap("result_" + "_".join(sorted(columns)), output)
