"""Independent oracle for COUNT(*) Group By results.

Shares no code with ``repro.engine``: every expected result is counted
with plain ``np.unique`` over the raw columns (or a Python ``Counter``
when the composite key does not fit an int64).  Results are compared in
a canonical form — key columns in sorted-name order, rows sorted
lexicographically — so engine row order never matters.

A run that raises is not caught here: the benchmark process dies with
the traceback and a non-zero exit, printing no result line, so every
query of that run counts as failed.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Protocol

import numpy as np

COUNT_COLUMN = "cnt"


class TableLike(Protocol):
    """The slice of ``repro.engine.table.Table`` the oracle reads."""

    num_rows: int

    def __getitem__(self, column: str) -> np.ndarray: ...


@dataclass(frozen=True)
class Canonical:
    """One Group By result in canonical form."""

    names: tuple[str, ...]
    keys: tuple[np.ndarray, ...]
    counts: np.ndarray

    def matches(self, other: "Canonical") -> bool:
        if self.names != other.names or len(self.counts) != len(other.counts):
            return False
        return np.array_equal(self.counts, other.counts) and all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self.keys, other.keys)
        )


def _strictly_sorted(keys: list[np.ndarray]) -> bool:
    """Whether the rows of ``keys`` are in strictly increasing
    lexicographic order (so sorting them would change nothing)."""
    increasing = np.zeros(len(keys[0]) - 1, dtype=bool)
    tied = np.ones(len(keys[0]) - 1, dtype=bool)
    for key in keys:
        increasing |= tied & (key[1:] > key[:-1])
        tied &= key[1:] == key[:-1]
    return bool(increasing.all())


def canonical(table: TableLike, query: Iterable[str]) -> Canonical:
    """Canonical form of an engine result table for ``query``."""
    names = tuple(sorted(query))
    keys = [np.asarray(table[name]) for name in names]
    counts = np.asarray(table[COUNT_COLUMN])
    if len(counts) > 1 and not _strictly_sorted(keys):
        # lexsort's last key is the primary one.
        order = np.lexsort(keys[::-1])
        keys = [key[order] for key in keys]
        counts = counts[order]
    return Canonical(names, tuple(keys), counts.astype(np.int64))


class Oracle:
    """Expected COUNT(*) results over one table's raw columns.

    Args:
        columns: column name -> raw value array (not dictionary codes).
    """

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self._columns = {name: np.asarray(a) for name, a in columns.items()}
        self._factors: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def for_table(cls, table: TableLike, columns: Iterable[str]) -> "Oracle":
        return cls({name: table[name] for name in columns})

    def _factor(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted distinct values, per-row index into them), memoized."""
        if name not in self._factors:
            uniques, inverse = np.unique(
                self._columns[name], return_inverse=True
            )
            self._factors[name] = (uniques, inverse.astype(np.int64))
        return self._factors[name]

    def counts(self, query: Iterable[str]) -> Canonical:
        """The expected result of ``SELECT query, COUNT(*) GROUP BY query``."""
        names = tuple(sorted(query))
        factors = [self._factor(name) for name in names]
        radix = 1
        for uniques, _ in factors:
            radix *= max(len(uniques), 1)
        if radix >= 2**62:
            return self._counts_by_dict(names)
        # Mixed-radix composite of the per-column ranks: its numeric
        # order is the lexicographic order of the key tuples.
        composite = np.zeros(len(factors[0][1]), dtype=np.int64)
        for uniques, inverse in factors:
            composite = composite * max(len(uniques), 1) + inverse
        groups, counts = np.unique(composite, return_counts=True)
        keys = []
        for uniques, _ in reversed(factors):
            size = max(len(uniques), 1)
            keys.append(uniques[groups % size])
            groups = groups // size
        return Canonical(names, tuple(reversed(keys)), counts.astype(np.int64))

    def _counts_by_dict(self, names: tuple[str, ...]) -> Canonical:
        tally = Counter(zip(*(self._columns[name].tolist() for name in names)))
        rows = sorted(tally)
        keys = tuple(
            np.array([row[i] for row in rows], dtype=self._columns[name].dtype)
            for i, name in enumerate(names)
        )
        counts = np.array([tally[row] for row in rows], dtype=np.int64)
        return Canonical(names, keys, counts)

    def expected(
        self, queries: Iterable[frozenset[str]]
    ) -> dict[frozenset[str], Canonical]:
        return {query: self.counts(query) for query in set(queries)}


class Checker:
    """Tallies queries checked against the oracle and queries failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(
        self,
        label: str,
        results: Mapping[frozenset[str], TableLike],
        expected: Mapping[frozenset[str], Canonical],
    ) -> int:
        """Compare one run's results with ``expected``; return failures."""
        failures = 0
        for query, want in expected.items():
            got = results.get(query)
            if got is None or not canonical(got, query).matches(want):
                failures += 1
                print(
                    f"MISMATCH {label}: GROUP BY {sorted(query)}",
                    file=sys.stderr,
                )
        self.attempted += len(expected)
        self.failed += failures
        return failures
