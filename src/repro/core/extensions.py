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

Execution takes the union strategy: each grouping operator carries the
union of the state columns its subtree's queries need
(:func:`~repro.engine.aggregation.state_specs`), and every query's
answer is finalized from them
(:func:`~repro.engine.aggregation.answer_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.engine.aggregation import AggregateSpec, state_specs
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
    """The state columns a node carrying both lists stores, each once."""
    return state_specs([*first, *second])


def aggregate_width(aggregates: Sequence[AggregateSpec]) -> int:
    """Bytes per row the aggregates' state columns add to a
    materialized node (AVG stores two)."""
    return 8 * len(state_specs(aggregates))


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


def query_aggregates(
    aggregates: Sequence[AggregateSpec] | AggregatesByQuery,
    columns: frozenset[str],
) -> tuple[AggregateSpec, ...]:
    """Query ``columns``'s aggregates: its entry in a per-query mapping;
    a list is the entry of every query."""
    if isinstance(aggregates, Mapping):
        return tuple(aggregates[columns])
    return tuple(aggregates)


def per_query_aggregates(
    aggregates: Sequence[AggregateSpec] | AggregatesByQuery,
    queries: Iterable[frozenset[str]],
) -> dict[frozenset[str], tuple[AggregateSpec, ...]]:
    """The per-query mapping over ``queries``: a list becomes the
    mapping with the same entry for every query.

    Raises:
        SchemaError: a mapping does not name exactly ``queries``.
    """
    wanted = set(queries)
    if isinstance(aggregates, Mapping):
        differ = set(aggregates) ^ wanted
        if differ:
            raise SchemaError(
                f"the per-query aggregates and the plan's queries "
                f"differ on {len(differ)} column set(s)"
            )
    return {columns: query_aggregates(aggregates, columns) for columns in wanted}
