"""Group-by aggregation: the workhorse physical operator of the engine.

Two execution strategies are provided, mirroring the hash- and sort-based
aggregation operators of a real system:

* :func:`group_by` — hash-style: factorize the key columns into dense
  integer codes, combine them into a single key, and aggregate with
  vectorized numpy reductions.
* the ``assume_sorted`` fast path — used when the input is already sorted
  on the grouping key (index scans, PipeSort pipelines): groups are found
  by boundary detection, no hashing or sorting at all.

COUNT(*), COUNT(col), SUM, MIN, MAX and AVG are supported.  Re-aggregation
(SUM over a previously computed ``cnt`` column) is what lets a Group By be
computed from a materialized ancestor instead of the base relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.engine.dictcache import _dense_range_budget, _scatter_rank
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table
from repro.engine.types import SchemaError, null_mask

if TYPE_CHECKING:  # import cycle guard: dictcache's kernels back Table
    from repro.engine.dictcache import DictionaryCache

#: Aggregate functions understood by the engine.
SUPPORTED_FUNCS = ("count", "count_col", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list of a Group By query.

    Args:
        func: one of :data:`SUPPORTED_FUNCS`.  ``'count'`` is COUNT(*),
            ``'count_col'`` is COUNT(col) (non-NULL values only).
        column: input column, or None for COUNT(*).
        alias: output column name.
    """

    func: str
    column: str | None
    alias: str

    def __post_init__(self) -> None:
        if self.func not in SUPPORTED_FUNCS:
            raise SchemaError(f"unsupported aggregate function {self.func!r}")
        if self.func != "count" and self.column is None:
            raise SchemaError(f"aggregate {self.func!r} requires a column")

    @classmethod
    def count_star(cls, alias: str = "cnt") -> "AggregateSpec":
        return cls("count", None, alias)

    @classmethod
    def sum_of(cls, column: str, alias: str | None = None) -> "AggregateSpec":
        return cls("sum", column, alias or f"sum_{column}")

    def describe(self) -> str:
        """SQL-ish rendering, e.g. ``COUNT(*) AS cnt``."""
        func_sql = {
            "count": "COUNT(*)",
            "count_col": f"COUNT({self.column})",
            "sum": f"SUM({self.column})",
            "min": f"MIN({self.column})",
            "max": f"MAX({self.column})",
            "avg": f"AVG({self.column})",
        }[self.func]
        return f"{func_sql} AS {self.alias}"


#: Largest composite-code domain the bincount fast path allocates for.
BINCOUNT_LIMIT = 1 << 22

#: The bincount regime also stays within this multiple of the rows it
#: serves: it allocates, zeroes and rescans one slot per code, so once
#: the domain outgrows the input the sort regime's one ``np.sort`` of
#: the rows is cheaper.  Below the floor both regimes are a few numpy
#: calls and bincount makes fewer.  Both fitted from a domain/rows
#: sweep (docs/performance.md, "Execution cost").
DENSE_DOMAIN_SLACK = 2
DENSE_DOMAIN_FLOOR = 1 << 11


#: Per-row group ids (SUM/MIN/MAX only) come from a rank table over the
#: domain while it is within this multiple of the rows.  The table is
#: never zeroed or scanned — only occupied slots are touched — so on
#: time alone it beats a binary search per row at any domain under
#: :data:`BINCOUNT_LIMIT`; the bound keeps a re-aggregation of a few
#: thousand rows from faulting in a 32 MB table of its own.
IDS_LOOKUP_SLACK = 64


def _dense_domain(radix: int, n_rows: int) -> bool:
    """Whether a composite domain is small enough for the bincount regime."""
    return radix <= min(
        BINCOUNT_LIMIT, max(DENSE_DOMAIN_FLOOR, DENSE_DOMAIN_SLACK * n_rows)
    )


class GroupStructure:
    """Row-to-group assignment over a composite key.

    Exactly one of two representations backs it: representative row
    indices (``first``) from which key values are gathered, or each
    key's per-group dictionary codes in the input table
    (``parent_codes``, decoded from the composite group codes) from
    which key values are looked up in the table's dictionaries.
    ``counts`` is precomputed when the grouping pass produced it for
    free; ``ids`` (per-row dense group numbers) materializes lazily —
    only SUM/MIN/MAX need it.
    """

    def __init__(
        self,
        n_groups: int,
        counts: np.ndarray | None,
        ids_factory,
        first: np.ndarray | None = None,
        parent_codes: dict[str, np.ndarray] | None = None,
    ) -> None:
        self.n_groups = n_groups
        self.counts = counts
        self._ids_factory = ids_factory
        self.first = first
        self.parent_codes = parent_codes
        self._ids: np.ndarray | None = None

    @property
    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._ids = self._ids_factory()
        return self._ids


def decode_parent_codes(
    group_codes: np.ndarray, keys: Sequence[str], cards: Sequence[int]
) -> dict[str, np.ndarray]:
    """Split composite group codes into each key's input dictionary codes.

    One ``divmod`` chain from the last key (stride 1) up; what is left
    after the second key is the first key's code.
    """
    parents: dict[str, np.ndarray] = {}
    rest = group_codes
    for key, card in zip(keys[:0:-1], cards[:0:-1]):
        rest, parents[key] = np.divmod(rest, card)
    parents[keys[0]] = rest
    return parents


#: Unsigned dtypes a pending result dictionary stores its per-group
#: input codes in, narrowest first (see :func:`narrow_codes`).
NARROW_CODE_DTYPES = (np.uint8, np.uint16, np.uint32)


def narrow_codes(codes: np.ndarray, cardinality: int) -> np.ndarray:
    """``codes`` over ``[0, cardinality)`` in the narrowest unsigned dtype.

    A copy in ``uint8``/``uint16``/``uint32`` when the dictionary fits
    one, else ``codes`` unchanged.
    """
    for dtype in NARROW_CODE_DTYPES:
        if cardinality <= int(np.iinfo(dtype).max) + 1:
            return codes.astype(dtype)
    return codes


def _rerank_dictionary(
    parent_codes: np.ndarray, parent_uniques: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary of a result key column from its per-group input codes.

    The input's codes follow value order, so ranking the codes that
    occur ranks the values.  Within the dense budget that is one
    presence scatter over the input dictionary and a running count —
    O(groups + dictionary) whatever the codes' dtype.  Past it the codes
    are widened to ``int64`` first: ``np.unique`` sorts narrow unsigned
    codes several times slower than ``int64`` ones.
    """
    span = len(parent_uniques)
    if span <= _dense_range_budget(len(parent_codes)):
        ranks, present = _scatter_rank(parent_codes, span)
        return ranks, parent_uniques[np.flatnonzero(present)]
    uniq_codes, inverse = np.unique(
        parent_codes.astype(np.int64, copy=False), return_inverse=True
    )
    return inverse.astype(np.int64, copy=False), parent_uniques[uniq_codes]


def defer_key_dictionaries(
    result: Table,
    parent_codes: Mapping[str, np.ndarray],
    parent_uniques: Mapping[str, np.ndarray],
) -> None:
    """Give a Group By result deferred dictionaries for its key columns.

    Most results are never re-grouped; the ones that are (materialized
    temps, cached results, CUBE tops) ask for their dictionaries and pay
    the re-rank then.  Each thunk holds only per-group arrays — the
    key's input codes, narrowed to the smallest unsigned dtype that
    holds the input dictionary, and that dictionary's distinct values —
    so a result keeps neither the grouping's per-row codes nor its input
    table alive.
    """
    for key, codes in parent_codes.items():
        uniques = parent_uniques[key]
        result.defer_dictionary(
            key,
            partial(
                _rerank_dictionary, narrow_codes(codes, len(uniques)), uniques
            ),
        )


def _column_codes(
    table: Table, key: str, dictionaries: "DictionaryCache | None"
) -> tuple[np.ndarray, np.ndarray]:
    """One column's dictionary, through the plan-wide cache when given."""
    if dictionaries is not None:
        return dictionaries.codes(table, key)
    return table.dictionary(key)


def _combined_codes(
    table: Table,
    keys: Sequence[str],
    dictionaries: "DictionaryCache | None" = None,
) -> tuple[np.ndarray, int, list[int] | None]:
    """Combine per-column dictionary codes into one int64 composite key.

    Returns (combined, radix, cards) where ``cards[i]`` is the
    cardinality of ``keys[i]`` inside the composite code (the last key
    has stride 1; see :func:`decode_parent_codes`).  When the composite
    domain would overflow int64 the running key is compressed
    (factorized) and combining continues — equal key tuples still share
    one code, but per-key decoding is lost, so ``cards`` is None.  For a
    single key ``combined`` *is* the dictionary's code array: callers
    must not write to it.
    """
    combined: np.ndarray | None = None
    radix = 1
    cards: list[int] = []
    compressed = False
    for key in keys:
        codes, uniques = _column_codes(table, key, dictionaries)
        card = max(len(uniques), 1)
        cards.append(card)
        if combined is None:
            combined = codes.astype(np.int64, copy=False)
            radix = card
            continue
        if radix > (2**62) // card:
            # Compress the running composite key and keep combining.
            uniq, inverse = np.unique(combined, return_inverse=True)
            combined = inverse.astype(np.int64, copy=False)
            radix = max(len(uniq), 1)
            compressed = True
            if radix > (2**62) // card:  # pragma: no cover - n > 2^62
                raise SchemaError("composite key domain exceeds int64")
        combined = combined * card
        combined += codes
        radix *= card
    if combined is None:
        combined = np.zeros(table.num_rows, dtype=np.int64)
    return combined, radix, None if compressed else cards


def _dense_group_ids(
    combined: np.ndarray, radix: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused O(n) grouping over a small composite-code domain.

    One ``bincount`` pass replaces the sort ``np.unique`` would run:
    occupied codes are ranked into dense group ids, and first-occurrence
    indices are recovered with a reverse-order scatter (the last write
    wins, so writing rows in reverse leaves the first occurrence).

    Returns:
        (ids, first, counts) — bit-identical to the ``np.unique``
        equivalents, since group numbering follows sorted code order
        either way.
    """
    counts_all = np.bincount(combined, minlength=radix)
    occupied = np.flatnonzero(counts_all)
    lookup = np.empty(radix, dtype=np.int64)
    lookup[occupied] = np.arange(len(occupied), dtype=np.int64)
    ids = lookup[combined]
    first = np.empty(len(occupied), dtype=np.int64)
    first[ids[::-1]] = np.arange(len(combined) - 1, -1, -1, dtype=np.int64)
    return ids, first, counts_all[occupied]


def combined_group_codes(
    table: Table,
    keys: Sequence[str],
    dictionaries: "DictionaryCache | None" = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Assign each row a group id over the composite key ``keys``.

    Returns:
        (group_ids, first_row_index_per_group, n_groups).  Provided for
        callers that need explicit ids (e.g. tests); ``group_by`` itself
        uses the cheaper :class:`GroupStructure` representations.  When
        the composite cardinality product fits comfortably in the
        bincount budget the final ``np.unique`` is skipped entirely in
        favour of the fused O(n) ranking pass.
    """
    if not keys:
        n = table.num_rows
        ids = np.zeros(n, dtype=np.int64)
        first = np.zeros(1 if n else 0, dtype=np.int64)
        return ids, first, 1 if n else 0
    combined, radix, cards = _combined_codes(table, keys, dictionaries)
    if cards is not None and len(combined) and _dense_domain(
        radix, len(combined)
    ):
        ids, first, _counts = _dense_group_ids(combined, radix)
        return ids, first, len(first)
    _, first, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    return inverse.astype(np.int64, copy=False), first, len(first)


#: Grouping strategies :func:`group_by` accepts.  ``'auto'`` and
#: ``'hash'`` prefer the bincount regime when the composite domain fits
#: (the guard on the actual radix, absolute and relative to the rows,
#: falls back to the sort regime otherwise);
#: ``'sort'`` forces the sort regime regardless of domain.  Both regimes
#: produce bit-identical result tables, so a physical plan may force
#: either without changing results or metrics.
GROUPING_STRATEGIES = ("auto", "hash", "sort")


def _hash_group(
    table: Table,
    keys: Sequence[str],
    dictionaries: "DictionaryCache | None" = None,
    force_sort: bool = False,
) -> GroupStructure:
    """Grouping over dictionary codes, in two regimes.

    Composite domains that are small, absolutely and next to the input
    (:func:`_dense_domain`), use one ``bincount`` pass — the cheap
    hash-table regime of a real aggregation operator.  Larger domains
    sort the composite codes — the sort-aggregation regime.  Both
    *decode* the group keys from the dictionaries and never gather
    representative rows.  Per-column codes come through ``dictionaries``
    (the plan-wide cache) when one is threaded in, so repeated plan
    nodes never re-factorize a shared column.  ``force_sort`` pins the
    sort regime (the physical planner's ``SortGroupBy`` operator); group
    numbering follows sorted composite-code order either way, so the two
    regimes return bit-identical structures.
    """
    n = table.num_rows
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return GroupStructure(0, empty, lambda: empty, first=empty)
    combined, radix, cards = _combined_codes(table, keys, dictionaries)
    if cards is None:
        # Compressed composite key: group via one int64 unique and keep
        # representative rows (keys cannot be decoded by arithmetic).
        _, first, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        ids = inverse.astype(np.int64, copy=False)
        return GroupStructure(len(first), None, lambda: ids, first=first)
    if not force_sort and _dense_domain(radix, n):
        counts_all = np.bincount(combined, minlength=radix)
        group_codes = np.flatnonzero(counts_all)
        counts = counts_all[group_codes]
    else:
        # Sort regime: one np.sort plus boundary detection.
        ordered = np.sort(combined)
        boundary = np.empty(len(ordered), dtype=bool)
        boundary[0] = True
        boundary[1:] = ordered[1:] != ordered[:-1]
        group_codes = ordered[boundary]
        positions = np.flatnonzero(boundary)
        counts = np.diff(np.append(positions, len(ordered)))

    def make_ids() -> np.ndarray:
        if radix > min(BINCOUNT_LIMIT, IDS_LOOKUP_SLACK * n):
            return np.searchsorted(group_codes, combined)
        # O(n) rank scatter; identical to searchsorted over the sorted
        # group codes, without the log factor and its cache misses.
        # Only the occupied slots of the table are written or read.
        lookup = np.empty(radix, dtype=np.int64)
        lookup[group_codes] = np.arange(len(group_codes), dtype=np.int64)
        return lookup[combined]

    return GroupStructure(
        len(group_codes),
        counts,
        make_ids,
        parent_codes=decode_parent_codes(group_codes, keys, cards),
    )


def sorted_group_boundaries(
    table: Table, keys: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Group ids for input already sorted on ``keys`` (boundary detection)."""
    n = table.num_rows
    if not keys:
        ids = np.zeros(n, dtype=np.int64)
        first = np.zeros(1 if n else 0, dtype=np.int64)
        return ids, first, 1 if n else 0
    if n == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            0,
        )
    change = np.zeros(n, dtype=bool)
    for key in keys:
        col = table[key]
        change[1:] |= col[1:] != col[:-1]
    ids = np.cumsum(change).astype(np.int64)
    first = np.flatnonzero(np.concatenate(([True], change[1:])))
    return ids, first, int(ids[-1]) + 1


def _apply_aggregate(
    spec: AggregateSpec,
    table: Table,
    group_ids: np.ndarray,
    n_groups: int,
    sorted_starts: np.ndarray | None = None,
) -> np.ndarray:
    """Compute one aggregate over precomputed group ids.

    ``sorted_starts`` is the first-row index of each group when the
    caller knows ``group_ids`` is already sorted ascending (the
    boundary-detection path): MIN/MAX then reduce over the rows in
    place instead of re-sorting them — the row order *is* the grouped
    order — skipping a full ``argsort``.
    """
    if spec.func == "count":
        return np.bincount(group_ids, minlength=n_groups).astype(np.int64)
    column = table[spec.column]
    if spec.func == "count_col":
        valid = (~null_mask(column)).astype(np.int64)
        return np.bincount(
            group_ids, weights=valid, minlength=n_groups
        ).astype(np.int64)
    if spec.func == "sum":
        sums = np.bincount(group_ids, weights=column, minlength=n_groups)
        if np.issubdtype(column.dtype, np.integer):
            return sums.astype(np.int64)
        return sums
    if spec.func == "avg":
        sums = np.bincount(group_ids, weights=column, minlength=n_groups)
        counts = np.bincount(group_ids, minlength=n_groups)
        return sums / np.maximum(counts, 1)
    # MIN / MAX: reduce over rows ordered by group.
    if column.dtype.kind == "U":
        # No unicode min/max ufunc: order rows by (group, value) and
        # take the boundary element of each group.
        order = np.lexsort((column, group_ids))
        starts = np.searchsorted(group_ids[order], np.arange(n_groups))
        if spec.func == "min":
            return column[order][starts]
        ends = np.searchsorted(
            group_ids[order], np.arange(n_groups), side="right"
        )
        return column[order][ends - 1]
    if sorted_starts is not None:
        if spec.func == "min":
            return np.minimum.reduceat(column, sorted_starts)
        return np.maximum.reduceat(column, sorted_starts)
    order = np.argsort(group_ids, kind="stable")
    starts = np.searchsorted(group_ids[order], np.arange(n_groups))
    if spec.func == "min":
        return np.minimum.reduceat(column[order], starts)
    return np.maximum.reduceat(column[order], starts)


def group_by(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    name: str | None = None,
    metrics: ExecutionMetrics | None = None,
    assume_sorted: bool = False,
    dictionaries: "DictionaryCache | None" = None,
    strategy: str = "auto",
) -> Table:
    """Execute ``SELECT keys, aggs FROM table GROUP BY keys``.

    Args:
        table: input relation.
        keys: grouping columns (may be empty for a grand total).
        aggregates: aggregate specs for the output.
        name: name of the result table.
        metrics: execution counters to update (scan + group-by).
        assume_sorted: use the boundary-detection fast path; the caller
            guarantees the table is sorted on ``keys``.
        dictionaries: plan-wide :class:`~repro.engine.dictcache.
            DictionaryCache`; when given, key columns are factorized at
            most once per plan execution across all Group By nodes.
        strategy: one of :data:`GROUPING_STRATEGIES`.  ``'sort'`` forces
            the sort regime; ``'hash'``/``'auto'`` prefer the bincount
            regime, guarded by the actual composite radix.  Ignored on
            the ``assume_sorted`` path.  The result table is identical
            under every strategy.

    Returns:
        A table with the key columns followed by one column per aggregate.
    """
    keys = list(keys)
    if strategy not in GROUPING_STRATEGIES:
        raise SchemaError(f"unknown grouping strategy {strategy!r}")
    if metrics is not None:
        # Row-store scan semantics: reading any part of a stored table
        # reads full rows.  ``touch`` pays the memory traffic for real.
        metrics.record_scan(table.num_rows, table.touch())
        metrics.record_group_by()
    sorted_starts: np.ndarray | None = None
    if assume_sorted:
        group_ids, first, n_groups = sorted_group_boundaries(table, keys)
        structure = GroupStructure(n_groups, None, lambda: group_ids, first=first)
        # Boundary detection leaves group_ids sorted ascending, so the
        # group starts double as MIN/MAX reduceat offsets (no argsort).
        sorted_starts = first
    elif not keys:
        n = table.num_rows
        zeros = np.zeros(n, dtype=np.int64)
        first = np.zeros(1 if n else 0, dtype=np.int64)
        structure = GroupStructure(1 if n else 0, None, lambda: zeros, first=first)
    else:
        structure = _hash_group(
            table, keys, dictionaries, force_sort=strategy == "sort"
        )
    parent_uniques: dict[str, np.ndarray] = {}
    if structure.parent_codes is None:
        assert structure.first is not None
        columns = {key: table[key][structure.first] for key in keys}
    else:
        parent_uniques = {key: table.dictionary(key)[1] for key in keys}
        columns = {
            key: parent_uniques[key][structure.parent_codes[key]]
            for key in keys
        }
    for spec in aggregates:
        if spec.alias in columns:
            raise SchemaError(f"duplicate output column {spec.alias!r}")
        if spec.func == "count" and structure.counts is not None:
            columns[spec.alias] = structure.counts.astype(np.int64)
        else:
            columns[spec.alias] = _apply_aggregate(
                spec,
                table,
                structure.ids,
                structure.n_groups,
                sorted_starts=sorted_starts,
            )
    result_name = name or f"groupby_{'_'.join(keys) or 'all'}"
    if not columns:
        raise SchemaError("group_by needs at least one key or aggregate")
    result = Table.wrap(result_name, columns)
    if structure.parent_codes is not None:
        defer_key_dictionaries(result, structure.parent_codes, parent_uniques)
    return result


# -- decomposable partial aggregate states (morsel execution) ---------------

#: Dense-domain budget for the order-free partial regime: a per-morsel
#: ``bincount`` allocates ``radix`` slots, so the domain must stay small
#: relative to the morsel (or below an absolute floor) for the O(m +
#: radix) pass to beat the O(m log m) sort it replaces.  The slack is
#: generous because morsel feasibility (``MORSEL_RADIX_SLACK``) already
#: rejects domains large relative to the *whole* input, so every radix
#: seen here is at most a small multiple of the morsel budget and the
#: linear slot scan still beats a comparison sort of the morsel.
PARTIAL_BINCOUNT_FLOOR = 1 << 16
PARTIAL_BINCOUNT_SLACK = 64


@dataclass
class PartialGroupState:
    """Decomposable aggregate state of one morsel (row range).

    ``codes`` are the *sorted* distinct composite key codes present in
    the morsel; ``counts`` the per-group row counts; ``partials`` maps
    aggregate alias to its partial array (float64 running sums for
    SUM/AVG/COUNT(col), native-dtype running MIN/MAX).  COUNT(*) needs
    no entry — ``counts`` is its partial state.  States merge by key
    code, so any partition of the rows yields the same final result.
    """

    codes: np.ndarray
    counts: np.ndarray
    partials: dict[str, np.ndarray] = field(default_factory=dict)


def partial_aggregate_state(
    combined: np.ndarray,
    columns: Mapping[str, np.ndarray],
    aggregates: Sequence[AggregateSpec],
    radix: int | None = None,
) -> PartialGroupState:
    """Partial aggregate states of one morsel over composite codes.

    Args:
        combined: per-row composite key codes of the morsel slice.
        columns: aggregate input columns, sliced to the same rows.
        aggregates: the aggregate specs to decompose.
        radix: composite-code domain size, when known.  Small domains
            with no MIN/MAX take an order-free ``bincount`` regime; the
            rest stable-sort the morsel and ``reduceat`` — both
            accumulate each group's rows in row order, matching the
            single-pass kernels' float summation order per morsel.
    """
    n = len(combined)
    partials: dict[str, np.ndarray] = {}
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        for spec in aggregates:
            if spec.func == "count":
                continue
            column = columns[spec.column]
            dtype = column.dtype if spec.func in ("min", "max") else np.float64
            partials[spec.alias] = np.zeros(0, dtype=dtype)
        return PartialGroupState(empty, empty, partials)
    dense_budget = max(PARTIAL_BINCOUNT_FLOOR, PARTIAL_BINCOUNT_SLACK * n)
    order_free = (
        radix is not None
        and 0 < radix <= min(BINCOUNT_LIMIT, dense_budget)
        and not any(spec.func in ("min", "max") for spec in aggregates)
    )
    if order_free:
        counts_all = np.bincount(combined, minlength=radix)
        occupied = np.flatnonzero(counts_all)
        codes = occupied.astype(np.int64, copy=False)
        counts = counts_all[occupied].astype(np.int64, copy=False)
        for spec in aggregates:
            if spec.func == "count":
                continue
            column = columns[spec.column]
            if spec.func == "count_col":
                weights = (~null_mask(column)).astype(np.float64)
            else:  # sum / avg: float64 accumulation, like the serial path
                weights = column.astype(np.float64, copy=False)
            partials[spec.alias] = np.bincount(
                combined, weights=weights, minlength=radix
            )[occupied]
        return PartialGroupState(codes, counts, partials)
    order = np.argsort(combined, kind="stable")
    ordered = combined[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(boundary)
    codes = ordered[starts]
    counts = np.diff(np.append(starts, n)).astype(np.int64, copy=False)
    for spec in aggregates:
        if spec.func == "count":
            continue
        column = columns[spec.column]
        if spec.func in ("min", "max"):
            if column.dtype.kind == "U":
                picked = column[np.lexsort((column, combined))]
                if spec.func == "min":
                    partials[spec.alias] = picked[starts]
                else:
                    ends = np.append(starts[1:], n)
                    partials[spec.alias] = picked[ends - 1]
            elif spec.func == "min":
                partials[spec.alias] = np.minimum.reduceat(
                    column[order], starts
                )
            else:
                partials[spec.alias] = np.maximum.reduceat(
                    column[order], starts
                )
        elif spec.func == "count_col":
            valid = (~null_mask(column)).astype(np.float64)
            partials[spec.alias] = np.add.reduceat(valid[order], starts)
        else:  # sum / avg
            values = column.astype(np.float64, copy=False)
            partials[spec.alias] = np.add.reduceat(values[order], starts)
    return PartialGroupState(codes, counts, partials)


def merge_partial_states(
    partials: Sequence[PartialGroupState],
    aggregates: Sequence[AggregateSpec],
    column_dtypes: Mapping[str, np.dtype],
    radix: int | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Merge per-morsel partial states into final group aggregates.

    Returns:
        (group_codes, counts, alias -> final aggregate array).  Group
        codes come out sorted ascending — the same numbering the
        single-pass regimes produce — so the merged result is
        bit-identical to :func:`group_by` for COUNT/COUNT(col)/MIN/MAX
        and for SUM/AVG over integer columns (float sums agree up to
        addition order, deterministically: morsels merge in index
        order).  ``column_dtypes`` maps aggregate input columns to
        their dtypes, deciding SUM's int64-vs-float output.  When the
        composite-code domain ``radix`` is known and fits the bincount
        budget (and no MIN/MAX is present), the merge runs order-free
        over the dense domain instead of sorting the concatenated
        codes; both paths accumulate each group in morsel order, so
        they agree bit for bit.
    """
    states = [state for state in partials if len(state.codes)]
    merged: dict[str, np.ndarray] = {}
    if not states:
        empty = np.zeros(0, dtype=np.int64)
        for spec in aggregates:
            if spec.func in ("count", "count_col"):
                merged[spec.alias] = empty
            elif spec.func == "avg":
                merged[spec.alias] = np.zeros(0, dtype=np.float64)
            elif spec.func == "sum":
                integral = np.issubdtype(
                    column_dtypes[spec.column], np.integer
                )
                merged[spec.alias] = (
                    empty if integral else np.zeros(0, dtype=np.float64)
                )
            else:
                merged[spec.alias] = np.zeros(
                    0, dtype=column_dtypes[spec.column]
                )
        return empty, empty, merged
    all_codes = np.concatenate([state.codes for state in states])
    dense = (
        radix is not None
        and 0 < radix <= BINCOUNT_LIMIT
        and not any(spec.func in ("min", "max") for spec in aggregates)
    )
    if dense:
        assert radix is not None
        counts_dense = np.bincount(
            all_codes,
            weights=np.concatenate(
                [state.counts for state in states]
            ).astype(np.float64),
            minlength=radix,
        )
        occupied = np.flatnonzero(counts_dense)
        uniq = occupied.astype(np.int64, copy=False)
        counts = counts_dense[occupied].astype(np.int64)
        for spec in aggregates:
            if spec.func == "count":
                merged[spec.alias] = counts
                continue
            values = np.concatenate(
                [state.partials[spec.alias] for state in states]
            )
            sums = np.bincount(
                all_codes, weights=values, minlength=radix
            )[occupied]
            if spec.func == "count_col":
                merged[spec.alias] = sums.astype(np.int64)
            elif spec.func == "avg":
                merged[spec.alias] = sums / np.maximum(counts, 1)
            elif np.issubdtype(column_dtypes[spec.column], np.integer):
                merged[spec.alias] = sums.astype(np.int64)
            else:
                merged[spec.alias] = sums
        return uniq, counts, merged
    uniq, inverse = np.unique(all_codes, return_inverse=True)
    n_groups = len(uniq)
    counts = np.bincount(
        inverse,
        weights=np.concatenate(
            [state.counts for state in states]
        ).astype(np.float64),
        minlength=n_groups,
    ).astype(np.int64)
    order: np.ndarray | None = None
    starts: np.ndarray | None = None
    for spec in aggregates:
        if spec.func == "count":
            merged[spec.alias] = counts
            continue
        values = np.concatenate(
            [state.partials[spec.alias] for state in states]
        )
        if spec.func in ("count_col", "sum", "avg"):
            sums = np.bincount(inverse, weights=values, minlength=n_groups)
            if spec.func == "count_col":
                merged[spec.alias] = sums.astype(np.int64)
            elif spec.func == "avg":
                merged[spec.alias] = sums / np.maximum(counts, 1)
            elif np.issubdtype(column_dtypes[spec.column], np.integer):
                merged[spec.alias] = sums.astype(np.int64)
            else:
                merged[spec.alias] = sums
            continue
        # MIN / MAX over per-morsel extrema.
        if values.dtype.kind == "U":
            ordered_vals = values[np.lexsort((values, inverse))]
            sorted_inverse = np.sort(inverse)
            seg = np.searchsorted(sorted_inverse, np.arange(n_groups))
            if spec.func == "min":
                merged[spec.alias] = ordered_vals[seg]
            else:
                seg_end = np.searchsorted(
                    sorted_inverse, np.arange(n_groups), side="right"
                )
                merged[spec.alias] = ordered_vals[seg_end - 1]
            continue
        if order is None:
            order = np.argsort(inverse, kind="stable")
            starts = np.searchsorted(
                inverse[order], np.arange(n_groups)
            )
        if spec.func == "min":
            merged[spec.alias] = np.minimum.reduceat(values[order], starts)
        else:
            merged[spec.alias] = np.maximum.reduceat(values[order], starts)
    return uniq, counts, merged


def reaggregate_specs(
    aggregates: Sequence[AggregateSpec],
) -> list[AggregateSpec]:
    """Rewrite aggregates for computation from a materialized ancestor.

    A Group By computed from an intermediate node must combine partial
    results: COUNT(*) becomes SUM(cnt), SUM stays SUM, MIN stays MIN,
    MAX stays MAX (the classic distributive-aggregate rewrite the paper
    relies on in Section 5.2).

    Raises:
        SchemaError: for non-distributive aggregates (AVG must be split
            into SUM and COUNT by the caller before planning).
    """
    rewritten = []
    for spec in aggregates:
        if spec.func in ("count", "count_col"):
            rewritten.append(AggregateSpec("sum", spec.alias, spec.alias))
        elif spec.func in ("sum", "min", "max"):
            rewritten.append(AggregateSpec(spec.func, spec.alias, spec.alias))
        else:
            raise SchemaError(
                f"aggregate {spec.func!r} is not distributive; "
                "decompose it before planning"
            )
    return rewritten
