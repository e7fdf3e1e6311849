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

Both also have a ``rows_lower_bound`` method (reached through
:func:`rows_lower_bound_of`): a floor under ``rows`` of a column set
whose statistic does not exist yet, read off the statistics of its known
subsets.  The search costs a merge optimistically with it and creates
the union's statistic only when that optimism still wins.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

import numpy as np

from repro.engine.table import Table
from repro.obs.clock import monotonic
from repro.stats.distinct import (
    estimate_from_profile,
    profile_lower_bound,
    sample_profile,
)
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


#: ``(columns, known) -> floor``; see :func:`rows_lower_bound_of`.
RowsLowerBound = Callable[[frozenset[str], tuple[frozenset[str], ...]], float]


def rows_lower_bound_of(estimator: CardinalityEstimator) -> RowsLowerBound:
    """The estimator's way to bound ``rows(columns)`` from below without
    creating the statistic of ``columns``.

    The function returned takes the column set and ``known``, column sets
    the caller already works with (the roots a merge joins): those inside
    ``columns`` may get their own statistic created, and the floor is
    derived from them.  An estimator that cannot bound — it has no
    ``rows_lower_bound`` method, e.g. a test oracle whose cardinalities
    are not monotone under inclusion — answers with ``rows`` itself.
    """
    bound = getattr(estimator, "rows_lower_bound", None)
    if bound is not None:
        return bound
    return lambda columns, known: estimator.rows(columns)


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
        self._row_widths: dict[frozenset[str], float] = {}

    def row_width(self, columns: Iterable[str]) -> float:
        if not isinstance(columns, frozenset):
            columns = frozenset(columns)
        width = self._row_widths.get(columns)
        if width is None:
            width = sum(self._widths[c] for c in columns) + COUNT_WIDTH
            self._row_widths[columns] = width
        return width


def _subsets_to_read(
    columns: frozenset[str], known: tuple[frozenset[str], ...]
) -> list[frozenset[str]]:
    """The members of ``known`` inside ``columns``, plus a single-column
    set for each column none of them covers (a covered column's own
    counts cannot exceed those of the subset covering it)."""
    subsets = [subset for subset in known if subset <= columns]
    covered = frozenset().union(*subsets)
    subsets.extend(frozenset([column]) for column in columns - covered)
    return subsets


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

    def rows_lower_bound(
        self, columns: frozenset[str], known: tuple[frozenset[str], ...]
    ) -> float:
        """The largest exact count among the ``known`` subsets of
        ``columns`` (and the single columns they leave out): a grouping
        has at least as many groups as any coarser one.  An existing
        count of ``columns`` is returned as it is."""
        exact = self._cache.get(columns)
        if exact is not None:
            return exact
        if not columns:
            return 1.0
        return max(
            self.rows(subset) for subset in _subsets_to_read(columns, known)
        )

    def row_width(self, columns: frozenset[str]) -> float:
        return self._widths.row_width(columns)


class SampledCardinalityEstimator:
    """Sample + distinct-estimator scaling, with metered statistics creation.

    Args:
        table: the base relation.
        sample_rows: sample size (one sample serves all statistics).
        method: distinct estimator name, a key of
            :data:`repro.stats.distinct.ESTIMATORS`.  This default is the
            only one: :func:`~repro.stats.distinct.estimate_from_profile`
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
        #: ``(d, f1)`` of the sample under each created statistic: what a
        #: superset's floor is computed from.
        self._profiles: dict[frozenset[str], tuple[int, int]] = {}
        self._caps: dict[frozenset[str], float] = {}
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

    def rows_lower_bound(
        self,
        columns: frozenset[str],
        known: tuple[frozenset[str], ...],
    ) -> float:
        """A floor under ``rows(columns)`` that leaves the sample alone.

        Grouping by more columns only splits the sample's groups, so the
        distinct count ``d`` and the singleton count ``f1`` of every
        subset bound those of ``columns`` from below; the estimator's
        floor at the largest such pair
        (:func:`~repro.stats.distinct.profile_lower_bound`), under the
        same two caps ``rows`` applies, cannot exceed the estimate.  The
        subsets read are the members of ``known`` inside ``columns`` and
        the single columns they leave out; their statistics are created
        if missing.  A statistic of ``columns`` that exists is returned
        as it is.
        """
        exact = self._cache.get(columns)
        if exact is not None:
            return exact
        if not columns:
            return 1.0
        d = f1 = 0
        for subset in _subsets_to_read(columns, known):
            self.rows(subset)
            subset_d, subset_f1 = self._profiles[subset]
            d = max(d, subset_d)
            f1 = max(f1, subset_f1)
        return min(
            profile_lower_bound(
                d, f1, self.sample_size, self._table.num_rows, self._method
            ),
            self._cap(columns),
        )

    def row_width(self, columns: frozenset[str]) -> float:
        return self._widths.row_width(columns)

    def _cap(self, columns: frozenset[str]) -> float:
        """The ceiling on an estimate: the product of the single-column
        estimates (independence) or the table cardinality, whichever is
        smaller.  Remembered per column set, so a floor and the estimate
        it bounds are cut at the same float."""
        cap = self._caps.get(columns)
        if cap is None:
            cap = float(self._table.num_rows)
            if len(columns) > 1:
                product = 1.0
                for column in columns:
                    product *= self._cache[frozenset([column])]
                    if product >= cap:
                        break
                cap = min(product, cap)
            self._caps[columns] = cap
        return cap

    def _create_statistic(self, columns: frozenset[str]) -> float:
        started = monotonic()
        sample = self._sampler.sample()
        if self._sample_codes is None:
            self._sample_codes = _CodesCache(sample)
        profile = sample_profile(self._sample_codes.combined(columns))
        estimate = estimate_from_profile(
            profile, sample.num_rows, self._table.num_rows, self._method
        )
        self._profiles[columns] = profile[:2]
        estimate = min(estimate, self._cap(columns))
        self.created_statistics.append(columns)
        self.creation_seconds += monotonic() - started
        return estimate
