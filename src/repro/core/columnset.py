"""Column sets: the identity of a Group By query.

A Group By query over relation R is identified by the (frozen) set of its
grouping columns, as in Section 3.1 of the paper.  This module provides
construction and formatting helpers plus a bitmask codec used internally
for fast subset tests during pruning.
"""

from __future__ import annotations

from typing import Iterable, Sequence

ColumnSet = frozenset


def column_set(*columns: str) -> frozenset[str]:
    """Build a column set: ``column_set('A', 'C')`` is the query (A,C)."""
    flattened: list[str] = []
    for item in columns:
        if isinstance(item, str):
            flattened.append(item)
        else:
            flattened.extend(item)
    return frozenset(flattened)


def format_columns(columns: Iterable[str]) -> str:
    """Render a column set the way the paper writes it, e.g. ``(A,C)``."""
    return "(" + ",".join(sorted(columns)) + ")"


class BitsetCodec:
    """Maps column sets to integer bitmasks for fast subset algebra.

    The pruners perform very large numbers of subset / union tests
    (Section 4.3); integers make these single machine operations instead
    of hash-set traversals.
    """

    def __init__(self, universe: Sequence[str]) -> None:
        ordered = sorted(set(universe))
        self._bit_of = {column: 1 << i for i, column in enumerate(ordered)}
        self._columns = ordered

    @property
    def universe(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def encode(self, columns: Iterable[str]) -> int:
        mask = 0
        for column in columns:
            try:
                mask |= self._bit_of[column]
            except KeyError:
                raise KeyError(
                    f"column {column!r} is not in the optimizer universe"
                ) from None
        return mask

    def decode(self, mask: int) -> frozenset[str]:
        return frozenset(
            column for column in self._columns if mask & self._bit_of[column]
        )

    @staticmethod
    def is_subset(a: int, b: int) -> bool:
        """True when mask ``a`` is a subset of mask ``b``."""
        return a & b == a

    @staticmethod
    def is_strict_subset(a: int, b: int) -> bool:
        return a != b and a & b == a
