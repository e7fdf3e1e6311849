"""Logical rewrites of GROUPING SETS queries (Section 5.1).

The paper integrates GB-MQO into a Cascades-style optimizer as a set of
logically equivalent rewritings of a GROUPING SETS expression.  This
module provides a small executable logical algebra —

    Relation, Select, Join, GroupBy, GroupingSets

— and the two transformations Section 5.1.1 describes:

* **selection pushdown**: a selection above a GROUPING SETS commutes
  below it when it references only columns present in every grouping set
  (Figure 7's "Expr" subtree absorbs the selection);
* **grouping pushdown below join** (Figure 8): a GROUPING SETS over
  Join(R, S) whose grouping columns all come from R is rewritten to
  group R first — each grouping set extended with the join column — and
  re-aggregate above the join, using a Grp-Tag column so each upper
  Group By consumes only its own rows.

Every expression can be executed against the engine, so tests verify
transformed trees produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.columnset import format_columns
from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.catalog import Catalog
from repro.engine.expressions import Predicate, apply_filter
from repro.engine.join import hash_join, union_all
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table
from repro.engine.types import SchemaError, null_value

GRP_TAG = "grp_tag"


class RewriteError(Exception):
    """A transformation's precondition does not hold."""


@dataclass(frozen=True)
class Expr:
    """Base class for logical expressions."""

    def evaluate(
        self, catalog: Catalog, metrics: ExecutionMetrics | None = None
    ) -> Table:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class RelationExpr(Expr):
    """A base relation by name."""

    name: str

    def evaluate(self, catalog, metrics=None):
        return catalog.get(self.name)

    def describe(self):
        return self.name


@dataclass(frozen=True)
class SelectExpr(Expr):
    """A conjunctive selection."""

    child: Expr
    predicates: tuple[Predicate, ...]

    def evaluate(self, catalog, metrics=None):
        table = self.child.evaluate(catalog, metrics)
        if metrics is not None:
            metrics.record_scan(table.num_rows, table.size_bytes())
        return apply_filter(table, list(self.predicates))

    def describe(self):
        conditions = " AND ".join(p.describe() for p in self.predicates)
        return f"Select[{conditions}]({self.child.describe()})"


@dataclass(frozen=True)
class JoinExpr(Expr):
    """Inner equi-join."""

    left: Expr
    right: Expr
    on: tuple[tuple[str, str], ...]

    def evaluate(self, catalog, metrics=None):
        left = self.left.evaluate(catalog, metrics)
        right = self.right.evaluate(catalog, metrics)
        return hash_join(left, right, list(self.on), metrics=metrics)

    def describe(self):
        keys = ", ".join(f"{l}={r}" for l, r in self.on)
        return (
            f"Join[{keys}]({self.left.describe()}, {self.right.describe()})"
        )


@dataclass(frozen=True)
class GroupByExpr(Expr):
    """A single Group By with COUNT-style aggregation.

    ``count_column`` names an existing partial-count column to SUM
    instead of COUNT(*) (used above a pushed-down grouping).
    """

    child: Expr
    columns: tuple[str, ...]
    count_column: str | None = None

    def evaluate(self, catalog, metrics=None):
        table = self.child.evaluate(catalog, metrics)
        if self.count_column is None:
            aggregates = [AggregateSpec.count_star("cnt")]
        else:
            aggregates = [AggregateSpec("sum", self.count_column, "cnt")]
        return group_by(
            table, list(self.columns), aggregates, metrics=metrics
        )

    def describe(self):
        return (
            f"GroupBy{format_columns(self.columns)}({self.child.describe()})"
        )


@dataclass(frozen=True)
class GroupingSetsExpr(Expr):
    """GROUPING SETS ((s1), (s2), ...) over a child expression.

    The result mirrors SQL: the union-all of the individual Group By
    results, with NULL padding for absent columns and a ``grp_tag``
    column identifying the grouping each row came from.  Each Group By
    computes ``aggregates`` (COUNT(*) AS cnt by default).

    ``count_column`` replaces them with SUM of a partial count (above a
    pushed-down grouping).
    """

    child: Expr
    sets: tuple[tuple[str, ...], ...]
    count_column: str | None = None
    aggregates: tuple[AggregateSpec, ...] = (AggregateSpec.count_star(),)

    def evaluate(self, catalog, metrics=None):
        table = self.child.evaluate(catalog, metrics)
        aggregates = list(self.aggregates)
        if self.count_column is not None:
            aggregates = [AggregateSpec("sum", self.count_column, "cnt")]
        results = [
            (
                columns,
                group_by(table, list(columns), aggregates, metrics=metrics),
            )
            for columns in self.sets
        ]
        return pad_and_union(table, results, metrics=metrics)

    def describe(self):
        rendered = ", ".join(format_columns(s) for s in self.sets)
        return f"GroupingSets[{rendered}]({self.child.describe()})"


def pad_and_union(
    source: Table,
    results: Sequence[tuple[tuple[str, ...], Table]],
    metrics: ExecutionMetrics | None = None,
) -> Table:
    """NULL-pad per-grouping results to a common schema and union them.

    Each result holds its grouping columns followed by the aggregate
    columns every result shares.  ``source`` supplies column dtypes;
    any column it lacks falls back to the dtype of the first grouping
    result that produced it.
    """
    all_columns: list[str] = []
    seen_columns: set[str] = set()
    for columns, _ in results:
        for column in columns:
            if column not in seen_columns:
                seen_columns.add(column)
                all_columns.append(column)
    dtype_source: dict[str, np.ndarray] = {}
    for column in all_columns:
        if column in source:
            dtype_source[column] = source[column]
        else:
            for columns, table in results:
                if column in columns:
                    dtype_source[column] = table[column]
                    break
    padded = []
    for columns, table in results:
        data: dict[str, np.ndarray] = {}
        tag = ",".join(sorted(columns)).encode()
        data[GRP_TAG] = np.full(table.num_rows, tag, dtype=f"S{max(len(tag), 1)}")
        for column in all_columns:
            if column in columns:
                data[column] = table[column]
            else:
                dtype = dtype_source[column].dtype
                if dtype.kind in "SU":
                    # The column's own string form at one character:
                    # the union widens it to the set columns' width.
                    dtype = np.dtype((dtype.type, 1))
                data[column] = np.full(table.num_rows, null_value(dtype), dtype=dtype)
        for column in table.column_names:
            if column not in columns:
                data[column] = table[column]
        padded.append(Table.wrap("grouping_set", data))
    return union_all(padded, name="grouping_sets", metrics=metrics)


@dataclass(frozen=True)
class TagFilterExpr(Expr):
    """Selects rows of a tagged union belonging to one grouping set."""

    child: Expr
    tag: str

    def evaluate(self, catalog, metrics=None):
        table = self.child.evaluate(catalog, metrics)
        mask = table[GRP_TAG] == self.tag.encode()
        return table.take(mask)

    def describe(self):
        return f"TagFilter[{self.tag}]({self.child.describe()})"


# -- transformations ----------------------------------------------------------


def push_selection_below(expr: SelectExpr) -> GroupingSetsExpr:
    """Select above GROUPING SETS -> GROUPING SETS above Select.

    Raises:
        RewriteError: when the expression shapes do not match or the
            predicate references a column absent from some grouping set
            (where the selection would see NULL padding instead).
    """
    if not isinstance(expr.child, GroupingSetsExpr):
        raise RewriteError("expected Select(GroupingSets(...))")
    grouping = expr.child
    referenced = {p.column for p in expr.predicates}
    for columns in grouping.sets:
        if not referenced <= set(columns):
            raise RewriteError(
                f"predicate columns {sorted(referenced)} are not in "
                f"grouping set {format_columns(columns)}"
            )
    return GroupingSetsExpr(
        SelectExpr(grouping.child, expr.predicates),
        grouping.sets,
        grouping.count_column,
        grouping.aggregates,
    )


def require_count_star(expr: GroupingSetsExpr) -> None:
    """The Figure 8 rewrite sums partial counts, so it computes
    COUNT(*) AS cnt only.

    Raises:
        RewriteError: ``expr`` computes any other aggregate.
    """
    if expr.aggregates != (AggregateSpec.count_star(),):
        rendered = ", ".join(spec.describe() for spec in expr.aggregates)
        raise RewriteError(
            f"grouping pushdown below a join computes COUNT(*) AS cnt "
            f"only, not {rendered}"
        )


@dataclass(frozen=True)
class PushedJoinRewrite:
    """Result of the Figure 8 rewrite.

    Attributes:
        expr: the rewritten expression (union of upper Group Bys).
        pushed_sets: the grouping sets computed on the left input —
            these are exactly the queries GB-MQO can then optimize.
    """

    expr: Expr
    pushed_sets: tuple[tuple[str, ...], ...] = field(default_factory=tuple)


def push_grouping_below_join(expr: GroupingSetsExpr) -> PushedJoinRewrite:
    """GROUPING SETS over Join(R, S) -> grouping pushed to R (Figure 8).

    Preconditions: the child is a single-key equi-join and every
    grouping column comes from the left input.

    The rewritten tree computes, on R, each grouping set extended with
    the join column (tagged, unioned), joins that with S, and computes
    each final grouping above the join with a Grp-Tag filter, summing
    the pushed-down partial counts.
    """
    if not isinstance(expr.child, JoinExpr):
        raise RewriteError("expected GroupingSets(Join(...))")
    require_count_star(expr)
    join = expr.child
    if len(join.on) != 1:
        raise RewriteError("only single-key equi-joins are supported")
    left_key, right_key = join.on[0]
    pushed_sets = []
    for columns in expr.sets:
        extended = tuple(dict.fromkeys(tuple(columns) + (left_key,)))
        pushed_sets.append(extended)
    pushed = GroupingSetsExpr(join.left, tuple(pushed_sets), expr.count_column)
    joined = JoinExpr(pushed, join.right, ((left_key, right_key),))
    upper = []
    for original, extended in zip(expr.sets, pushed_sets):
        tag = ",".join(sorted(extended))
        upper.append(
            (
                original,
                GroupByExpr(
                    TagFilterExpr(joined, tag), original, count_column="cnt"
                ),
            )
        )
    return PushedJoinRewrite(
        expr=_UnionOfGroupBys(tuple(upper)),
        pushed_sets=tuple(pushed_sets),
    )


@dataclass(frozen=True)
class _UnionOfGroupBys(Expr):
    """Union-all of per-set Group Bys, padded like a GROUPING SETS."""

    parts: tuple[tuple[tuple[str, ...], GroupByExpr], ...]

    def evaluate(self, catalog, metrics=None):
        results = []
        source: Table | None = None
        for columns, part in self.parts:
            table = part.evaluate(catalog, metrics)
            results.append((columns, table))
            if source is None:
                source = table
        if source is None:
            raise SchemaError("empty union of group bys")
        return pad_and_union(source, results, metrics=metrics)

    def describe(self):
        rendered = ", ".join(p.describe() for _, p in self.parts)
        return f"UnionAll({rendered})"
