"""Scalar expressions: filter predicates and derived columns.

The paper notes (Section 1) that the grouped column set X "may sometimes
contain derived columns, e.g. LEN(c) for computing the length distribution
of a column c".  Derived columns let the data-quality examples group by
LEN(col), IS NULL flags, etc., without extending the engine's storage
layer: a derived column is evaluated once and attached to the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.engine.table import Table
from repro.engine.types import SchemaError, char_lengths, null_mask


@dataclass(frozen=True)
class Predicate:
    """A simple comparison predicate ``column <op> value``."""

    column: str
    op: str
    value: object

    _OPS = {
        "==": np.equal,
        "!=": np.not_equal,
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }

    def mask(self, table: Table) -> np.ndarray:
        """Evaluate to a boolean row mask over ``table``.

        A ``str`` value compared with a string column of UTF-8 bytes is
        encoded first; byte order is code-point order, so ``<`` and
        ``>`` order values as they do the decoded strings.
        """
        if self.op not in self._OPS:
            raise SchemaError(f"unsupported predicate operator {self.op!r}")
        column = table[self.column]
        value = self.value
        if isinstance(value, str) and column.dtype.kind == "S":
            value = value.encode()
        return self._OPS[self.op](column, value)

    def describe(self) -> str:
        value = f"'{self.value}'" if isinstance(self.value, str) else self.value
        sql_op = "=" if self.op == "==" else ("<>" if self.op == "!=" else self.op)
        return f"{self.column} {sql_op} {value}"


def apply_filter(table: Table, predicates: list[Predicate]) -> Table:
    """Return the rows of ``table`` satisfying all ``predicates``."""
    if not predicates:
        return table
    mask = predicates[0].mask(table)
    for predicate in predicates[1:]:
        mask &= predicate.mask(table)
    return table.take(mask)


@dataclass(frozen=True)
class DerivedColumn:
    """A computed column, e.g. ``LEN(l_comment) AS len_comment``.

    Args:
        name: output column name.
        source: input column the expression reads.
        expr: one of the built-in expression names, or 'custom'.
        fn: the vectorized function for expr='custom'.
    """

    name: str
    source: str
    expr: str
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def evaluate(self, table: Table) -> np.ndarray:
        column = table[self.source]
        if self.expr == "len":
            return char_lengths(column)
        if self.expr == "is_null":
            return null_mask(column).astype(np.int64)
        if self.expr == "custom":
            if self.fn is None:
                raise SchemaError("custom derived column needs fn")
            return self.fn(column)
        raise SchemaError(f"unsupported derived expression {self.expr!r}")


def length_of(column: str, name: str | None = None) -> DerivedColumn:
    """Derived column for the length distribution of a string column."""
    return DerivedColumn(name or f"len_{column}", column, "len")


def is_null_flag(column: str, name: str | None = None) -> DerivedColumn:
    """Derived 0/1 column flagging NULL values."""
    return DerivedColumn(name or f"isnull_{column}", column, "is_null")


def with_derived(table: Table, derived: list[DerivedColumn]) -> Table:
    """Attach derived columns to a table (evaluated eagerly, once)."""
    result = table
    for column in derived:
        result = result.with_column(column.name, column.evaluate(result))
    return result
