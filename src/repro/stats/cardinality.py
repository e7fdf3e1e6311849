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
the union's statistic only when that optimism still wins.  The floor is
made of the parts :class:`RowsFloors` names, so the search can also take
it for a whole walk of pairs at once, as arrays (:func:`floors_of`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

import numpy as np

from repro.engine.dictcache import encode_column
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


class RowsFloors(Protocol):
    """The parts ``rows_lower_bound(columns, known)`` is made of.

    With ``u`` the union of the known sets, the floor is
    ``statistic(u)`` when that is not None, and otherwise
    ``profile_floor(d, f1, cap(u))`` at the componentwise maximum
    ``(d, f1)`` of the known sets' profiles.  ``profile_floor`` takes
    floats and arrays alike, so the floors of many pairs are one array
    expression, equal bit for bit to the floors taken one at a time.
    """

    def statistic(self, columns: frozenset[str]) -> float | None:
        """A floor under ``rows(columns)`` that reads no other column
        set, or None; creates nothing."""
        ...

    def profile(self, columns: frozenset[str]) -> tuple[float, float]:
        """``(d, f1)`` of ``columns``, which no superset's falls under
        (the statistic of ``columns`` is created if missing)."""
        ...

    def cap(self, columns: frozenset[str]) -> float:
        """The ceiling every estimate of ``columns`` is cut at."""
        ...

    def profile_floor(self, d, f1, cap):
        """The floor under every profile at least ``(d, f1)``, cut at
        ``cap``."""
        ...


def floors_of(estimator: CardinalityEstimator) -> RowsFloors:
    """``estimator`` itself when it builds its floors from profiles;
    otherwise a view whose ``statistic`` is the estimator's floor over
    no known set (its ``rows`` when it cannot bound at all)."""
    if hasattr(estimator, "profile_floor"):
        return estimator
    return _UnionFloors(rows_lower_bound_of(estimator))


class _UnionFloors:
    """:class:`RowsFloors` of an estimator with no profiles: every union
    has a ``statistic``, its floor over no known set, so the profile
    parts are never read."""

    def __init__(self, bound: RowsLowerBound) -> None:
        self._bound = bound

    def statistic(self, columns: frozenset[str]) -> float:
        return self._bound(columns, ())

    def profile(self, columns: frozenset[str]) -> tuple[float, float]:
        raise NotImplementedError

    def cap(self, columns: frozenset[str]) -> float:
        raise NotImplementedError

    def profile_floor(self, d, f1, cap):
        raise NotImplementedError


class _CodesCache:
    """Caches per-column dense codes so combined counts are cheap.

    Args:
        dictionary: ``column -> (codes, distinct values)``, the codes
            over the rows counted and indexing those distinct values.
    """

    def __init__(
        self, dictionary: Callable[[str], tuple[np.ndarray, np.ndarray]]
    ) -> None:
        self._dictionary = dictionary
        self._codes: dict[str, tuple[np.ndarray, int]] = {}

    def codes(self, column: str) -> tuple[np.ndarray, int]:
        if column not in self._codes:
            codes, uniques = self._dictionary(column)
            self._codes[column] = (codes, len(uniques))
        return self._codes[column]

    def combined(self, columns: Iterable[str]) -> np.ndarray:
        """One int64 code per row for a non-empty column set (read-only:
        a single column's codes are returned uncopied when they are
        ``int64``).  Narrow codes are widened before any arithmetic."""
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


class _ProfileFloors:
    """``rows_lower_bound`` from the :class:`RowsFloors` parts, for the
    estimators that have them."""

    def rows_lower_bound(
        self, columns: frozenset[str], known: tuple[frozenset[str], ...]
    ) -> float:
        """A floor under ``rows(columns)``: the statistic of ``columns``
        as it is when it exists, and otherwise the floor at the largest
        ``(d, f1)`` among the ``known`` subsets of ``columns`` and the
        single columns they leave out, whose statistics are created if
        missing."""
        exact = self.statistic(columns)
        if exact is not None:
            return exact
        if not columns:
            return 1.0
        # A full floor reads the union's rows on several of its edges.
        floor = self._floors.get((columns, known))
        if floor is None:
            d = f1 = 0
            for subset in _subsets_to_read(columns, known):
                subset_d, subset_f1 = self.profile(subset)
                d = max(d, subset_d)
                f1 = max(f1, subset_f1)
            floor = float(self.profile_floor(d, f1, self.cap(columns)))
            self._floors[columns, known] = floor
        return floor


class ExactCardinalityEstimator(_ProfileFloors):
    """Exact group counts with caching (a perfect-statistics oracle).

    Its floor is the largest exact count among the known subsets: a
    grouping has at least as many groups as any coarser one.
    """

    def __init__(self, table: Table) -> None:
        self._table = table
        self._codes = _CodesCache(table.dictionary)
        self._widths = _WidthModel(table)
        self._cache: dict[frozenset[str], float] = {}
        self._floors: dict[tuple[object, ...], float] = {}

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

    def statistic(self, columns: frozenset[str]) -> float | None:
        return self._cache.get(columns)

    def profile(self, columns: frozenset[str]) -> tuple[float, float]:
        return self.rows(columns), 0.0

    def cap(self, columns: frozenset[str]) -> float:
        return float(self._table.num_rows)

    def profile_floor(self, d, f1, cap):
        return np.minimum(d, cap)

    def row_width(self, columns: frozenset[str]) -> float:
        return self._widths.row_width(columns)


class SampledCardinalityEstimator(_ProfileFloors):
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
        #: ``rows_lower_bound`` per ``(columns, known)``, while ``columns``
        #: has no statistic.
        self._floors: dict[tuple[object, ...], float] = {}
        self._sample_codes = _CodesCache(self._sample_dictionary)
        #: Column sets for which a statistic was created, in order.
        self.created_statistics: list[frozenset[str]] = []
        #: Total wall-clock seconds spent creating statistics.
        self.creation_seconds = 0.0

    @property
    def base_rows(self) -> int:
        return self._table.num_rows

    @property
    def sample_size(self) -> int:
        return len(self._sampler.indices())

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

    def statistic(self, columns: frozenset[str]) -> float | None:
        return self._cache.get(columns)

    def profile(self, columns: frozenset[str]) -> tuple[float, float]:
        self.rows(columns)
        return self._profiles[columns]

    def profile_floor(self, d, f1, cap):
        """The floor ``rows_lower_bound`` reads, which leaves the sample
        alone: grouping by more columns only splits the sample's groups,
        so the ``d`` and ``f1`` of every subset bound those of a superset
        from below, and the estimator's floor at the largest such pair
        (:func:`~repro.stats.distinct.profile_lower_bound`), under the
        same two caps ``rows`` applies, cannot exceed its estimate."""
        return np.minimum(
            profile_lower_bound(
                d, f1, self.sample_size, self._table.num_rows, self._method
            ),
            cap,
        )

    def row_width(self, columns: frozenset[str]) -> float:
        return self._widths.row_width(columns)

    def cap(self, columns: frozenset[str]) -> float:
        """The ceiling on an estimate: the product of the single-column
        estimates (independence) or the table cardinality, whichever is
        smaller.  Remembered per column set, so a floor and the estimate
        it bounds are cut at the same float; multiplied in sorted column
        order, so the float does not depend on set iteration order."""
        cap = self._caps.get(columns)
        if cap is None:
            cap = float(self._table.num_rows)
            if len(columns) > 1:
                product = 1.0
                for column in sorted(columns):
                    product *= self._cache[frozenset([column])]
                    if product >= cap:
                        break
                cap = min(product, cap)
            self._caps[columns] = cap
        return cap

    def _sample_dictionary(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        """``column``'s codes at the sampled rows and the distinct values
        they index: the table's built dictionary gathered there when it
        has one, else an encode of the sampled values alone — never of
        the whole column.  Either numbering partitions the sample rows
        by value alike, so every ``(d, f1, f2)`` profile is the same."""
        rows = self._sampler.indices()
        built = self._table.cached_dictionary(column)
        if built is not None:
            codes, uniques = built
            return codes[rows], uniques
        return encode_column(self._table[column][rows])

    def _create_statistic(self, columns: frozenset[str]) -> float:
        started = monotonic()
        profile = sample_profile(self._sample_codes.combined(columns))
        estimate = estimate_from_profile(
            profile, self.sample_size, self._table.num_rows, self._method
        )
        self._profiles[columns] = profile[:2]
        estimate = min(estimate, self.cap(columns))
        self.created_statistics.append(columns)
        self.creation_seconds += monotonic() - started
        return estimate
