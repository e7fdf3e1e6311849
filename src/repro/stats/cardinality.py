"""Group-by cardinality estimation over column sets.

Everything the GB-MQO cost models need reduces to one question: *how many
groups does GROUP BY X produce on R?*  (Section 3.2: "we still need to be
able to estimate the cardinality of a Group By query, which is a hard
problem.")

Two estimators are provided:

* :class:`ExactCardinalityEstimator` — counts distinct combinations on
  the full table.  This plays the role of a perfect-statistics oracle in
  tests and small experiments.
* :class:`SampledCardinalityEstimator` — what a real system does: count
  distinct combinations in a uniform sample and scale up with a
  sampling-based distinct estimator (:mod:`repro.stats.distinct`),
  capping at both the product of per-column distinct counts and the
  table size.  Every first-encountered column set creates a new
  "statistic"; creation time and scans are metered for the Section 6.7
  overhead experiment.
"""

from __future__ import annotations

import time
from typing import Iterable, Protocol

import numpy as np

from repro.engine.aggregation import factorize
from repro.engine.table import Table
from repro.stats.distinct import estimate_distinct
from repro.stats.sampler import TableSampler


class CardinalityEstimator(Protocol):
    """What cost models require of a cardinality source."""

    @property
    def base_rows(self) -> int:
        """Rows in the base relation R."""
        ...

    def rows(self, columns: frozenset[str]) -> float:
        """Estimated number of groups of GROUP BY ``columns`` on R."""
        ...

    def row_width(self, columns: frozenset[str]) -> float:
        """Estimated bytes per row of the Group By result (keys + count)."""
        ...


#: Width of the COUNT(*) column carried by every materialized node.
COUNT_WIDTH = 8


class _CodesCache:
    """Caches per-column dense codes so combined counts are cheap."""

    def __init__(self, table: Table) -> None:
        self._table = table
        self._codes: dict[str, tuple[np.ndarray, int]] = {}

    def codes(self, column: str) -> tuple[np.ndarray, int]:
        if column not in self._codes:
            codes, uniques = self._table.dictionary(column)
            self._codes[column] = (codes, len(uniques))
        return self._codes[column]

    def combined(self, columns: Iterable[str]) -> np.ndarray:
        """One int64 code per row for a non-empty column set (read-only:
        a single column's codes are returned uncopied)."""
        code_arrays = []
        combined = None
        radix_ok = True
        radix = 1
        for column in sorted(columns):
            codes, card = self.codes(column)
            code_arrays.append(codes)
            if radix_ok and card and radix <= (2**62) // card:
                if combined is None:
                    combined = codes.astype(np.int64, copy=False)
                else:
                    combined = combined * card
                    combined += codes
                radix *= card
            else:
                radix_ok = False
        if radix_ok:
            return combined
        stacked = np.rec.fromarrays(code_arrays)
        _, inverse = np.unique(stacked, return_inverse=True)
        return inverse.astype(np.int64)


class _WidthModel:
    """Bytes-per-row model for Group By results over a base table."""

    def __init__(self, table: Table) -> None:
        self._widths = {
            column: float(table[column].dtype.itemsize)
            for column in table.column_names
        }

    def row_width(self, columns: frozenset[str]) -> float:
        return sum(self._widths[c] for c in columns) + COUNT_WIDTH


class ExactCardinalityEstimator:
    """Exact group counts with caching (a perfect-statistics oracle)."""

    def __init__(self, table: Table) -> None:
        self._table = table
        self._codes = _CodesCache(table)
        self._widths = _WidthModel(table)
        self._cache: dict[frozenset[str], float] = {}

    @property
    def base_rows(self) -> int:
        return self._table.num_rows

    def rows(self, columns: frozenset[str]) -> float:
        columns = frozenset(columns)
        if not columns:
            return 1.0
        if columns not in self._cache:
            combined = self._codes.combined(columns)
            self._cache[columns] = float(len(np.unique(combined)))
        return self._cache[columns]

    def row_width(self, columns: frozenset[str]) -> float:
        return self._widths.row_width(frozenset(columns))


class SampledCardinalityEstimator:
    """Sample + distinct-estimator scaling, with metered statistics creation.

    Args:
        table: the base relation.
        sample_rows: sample size (one sample serves all statistics).
        method: distinct estimator name, a key of
            :data:`repro.stats.distinct.ESTIMATORS`.  This default is the
            only one: :func:`~repro.stats.distinct.estimate_distinct`
            takes the name explicitly.
        seed: sampling seed.
    """

    def __init__(
        self,
        table: Table,
        sample_rows: int = 10_000,
        method: str = "hybrid",
        seed: int = 0,
    ) -> None:
        self._table = table
        self._sampler = TableSampler(table, sample_rows=sample_rows, seed=seed)
        self._method = method
        self._widths = _WidthModel(table)
        self._cache: dict[frozenset[str], float] = {}
        self._sample_codes: _CodesCache | None = None
        #: Column sets for which a statistic was created, in order.
        self.created_statistics: list[frozenset[str]] = []
        #: Total wall-clock seconds spent creating statistics.
        self.creation_seconds = 0.0

    @property
    def base_rows(self) -> int:
        return self._table.num_rows

    @property
    def sample_size(self) -> int:
        return self._sampler.sample().num_rows

    def rows(self, columns: frozenset[str]) -> float:
        columns = frozenset(columns)
        if not columns:
            return 1.0
        if columns not in self._cache:
            if len(columns) > 1:
                # Build single-column statistics first so their creation
                # time is not double-counted inside this statistic's.
                for column in columns:
                    self.rows(frozenset([column]))
            self._cache[columns] = self._create_statistic(columns)
        return self._cache[columns]

    def row_width(self, columns: frozenset[str]) -> float:
        return self._widths.row_width(frozenset(columns))

    def _create_statistic(self, columns: frozenset[str]) -> float:
        started = time.perf_counter()
        sample = self._sampler.sample()
        if self._sample_codes is None:
            self._sample_codes = _CodesCache(sample)
        combined = self._sample_codes.combined(columns)
        estimate = estimate_distinct(
            combined, sample.num_rows, self._table.num_rows, self._method
        )
        # Cap at the product of the single-column estimates (independence
        # bound) and at the table cardinality.
        if len(columns) > 1:
            product = 1.0
            for column in columns:
                product *= self._cache[frozenset([column])]
                if product >= self._table.num_rows:
                    break
            estimate = min(estimate, product)
        estimate = min(estimate, float(self._table.num_rows))
        self.created_statistics.append(columns)
        self.creation_seconds += time.perf_counter() - started
        return estimate
