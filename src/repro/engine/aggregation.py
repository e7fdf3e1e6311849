"""Group-by aggregation: the workhorse physical operator of the engine.

Two execution strategies are provided, mirroring the hash- and sort-based
aggregation operators of a real system:

* :func:`group_by` — hash-style: factorize the key columns into dense
  integer codes, combine them into a single key, and aggregate with
  vectorized numpy reductions.
* the ``assume_sorted`` fast path — used when the input is already sorted
  on the grouping key (index scans, PipeSort pipelines): groups are found
  by boundary detection, no hashing or sorting at all.

COUNT(*), COUNT(col), SUM, MIN, MAX and AVG are each defined once, in
:data:`FUNCTIONS`: the state columns the function stores, how rows
*add* into them, how partial states *merge*, and how the states
*finalize* into the answer.  Merging is what lets a Group By be computed
from a materialized ancestor instead of the base relation (Section 5.2),
and every path — the kernels here, re-aggregation, CUBE/ROLLUP, morsel
partials — reads these definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.engine.dictcache import (
    _dense_range_budget,
    _scatter_rank,
    _sort_rank,
    code_dtype,
    narrow_codes,
)
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table
from repro.engine.types import SchemaError, null_mask, null_value

if TYPE_CHECKING:  # import cycle guard: dictcache's kernels back Table
    from repro.engine.dictcache import DictionaryCache

@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list of a Group By query.

    Args:
        func: a key of :data:`FUNCTIONS`.  ``'count'`` is COUNT(*),
            ``'count_col'`` is COUNT(col) (non-NULL values only).
        column: input column, or None for COUNT(*).
        alias: output column name.
    """

    func: str
    column: str | None
    alias: str

    def __post_init__(self) -> None:
        function = FUNCTIONS.get(self.func)
        if function is None:
            raise SchemaError(f"unsupported aggregate function {self.func!r}")
        if function.reads_column and self.column is None:
            raise SchemaError(f"aggregate {self.func!r} requires a column")

    @classmethod
    def count_star(cls, alias: str = "cnt") -> "AggregateSpec":
        return cls("count", None, alias)

    @classmethod
    def sum_of(cls, column: str, alias: str | None = None) -> "AggregateSpec":
        return cls("sum", column, alias or f"sum_{column}")

    def describe(self) -> str:
        """SQL-ish rendering, e.g. ``COUNT(*) AS cnt``."""
        function = FUNCTIONS[self.func]
        argument = self.column if function.reads_column else "*"
        return f"{function.sql}({argument}) AS {self.alias}"


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
    A key's parent codes are None when the grouping numbers its
    dictionary's codes as they are (:func:`code_groups`' identity):
    the key's values are then its dictionary's distinct values.
    ``counts`` is precomputed when the grouping pass produced it for
    free; ``ids`` (per-row dense group numbers) materializes lazily —
    only SUM/MIN/MAX need it.  ``starts`` is each group's first row
    when the rows are already in group order (boundary detection), so
    MIN/MAX reduce in place instead of ordering the rows.
    """

    def __init__(
        self,
        n_groups: int,
        counts: np.ndarray | None,
        ids_factory,
        first: np.ndarray | None = None,
        parent_codes: dict[str, np.ndarray | None] | None = None,
        starts: np.ndarray | None = None,
    ) -> None:
        self.n_groups = n_groups
        self.counts = counts
        self._ids_factory = ids_factory
        self.first = first
        self.parent_codes = parent_codes
        self.starts = starts
        self._ids: np.ndarray | None = None

    @property
    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._ids = self._ids_factory()
        return self._ids


def decode_parent_codes(
    group_codes: np.ndarray | None, keys: Sequence[str], cards: Sequence[int]
) -> dict[str, np.ndarray | None]:
    """Split composite group codes into each key's input dictionary codes.

    One ``divmod`` chain from the last key (stride 1) up; what is left
    after the second key is the first key's code.  The codes come out
    ``intp``, as the gathers they index want them.  Under the identity
    numbering (``group_codes`` None) a single key's codes stay None: its
    groups are its dictionary.
    """
    if group_codes is None:
        if len(keys) == 1:
            return {keys[0]: None}
        group_codes = np.arange(math.prod(cards))
    parents: dict[str, np.ndarray | None] = {}
    rest = group_codes.astype(np.intp, copy=False)
    for key, card in zip(keys[:0:-1], cards[:0:-1]):
        rest, parents[key] = np.divmod(rest, card)
    parents[keys[0]] = rest
    return parents


def _rerank_dictionary(
    parent_codes: np.ndarray, parent_uniques: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary of a result key column from its per-group input codes.

    The input's codes follow value order, so ranking the codes that
    occur ranks the values.  Within the dense budget that is one
    presence scatter over the input dictionary and a running count —
    O(groups + dictionary) whatever the codes' dtype.  Past it, one
    argsort ranks them; the input dictionary then holds more than the
    budget's floor of values, so its codes are ``uint32`` or wider,
    which argsort takes at full speed.  Either way the result codes
    come in their :func:`~repro.engine.dictcache.code_dtype`.
    """
    span = len(parent_uniques)
    if span <= _dense_range_budget(len(parent_codes)):
        ranks, present = _scatter_rank(parent_codes, span)
        return ranks, parent_uniques[np.flatnonzero(present)]
    ranks, occurring = _sort_rank(parent_codes)
    return ranks, parent_uniques[occurring]


def _identity_dictionary(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dictionary of a column of distinct values in sorted order."""
    return np.arange(len(values), dtype=code_dtype(len(values))), values


def key_columns(
    parent_codes: Mapping[str, np.ndarray | None],
    parent_uniques: Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """A Group By result's key columns, in ``parent_uniques`` order,
    from their per-group input codes.

    A key whose codes are None (the identity numbering) is its input
    dictionary's distinct values: a read-only view of them, neither
    gathered nor copied.
    """
    columns = {}
    for key, uniques in parent_uniques.items():
        codes = parent_codes[key]
        if codes is None:
            columns[key] = uniques.view()
            columns[key].flags.writeable = False
        else:
            columns[key] = uniques[codes]
    return columns


def defer_key_dictionaries(
    result: Table,
    parent_codes: Mapping[str, np.ndarray | None],
    parent_uniques: Mapping[str, np.ndarray],
) -> None:
    """Give a Group By result deferred dictionaries for its key columns.

    Most results are never re-grouped; the ones that are (materialized
    temps, cached results, CUBE tops) ask for their dictionaries and pay
    the re-rank then.  Each thunk holds only per-group arrays — the
    key's input codes, narrowed to the smallest unsigned dtype that
    holds the input dictionary, and that dictionary's distinct values —
    so a result keeps neither the grouping's per-row codes nor its input
    table alive.  An identity-numbered key's thunk holds its result
    column alone: its dictionary is the identity over those values.
    """
    for key, codes in parent_codes.items():
        uniques = parent_uniques[key]
        if codes is None:
            derive = partial(_identity_dictionary, result[key])
        else:
            derive = partial(
                _rerank_dictionary, narrow_codes(codes, len(uniques)), uniques
            )
        result.defer_dictionary(key, derive)


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
    """Combine per-column dictionary codes into one composite key.

    Returns (combined, radix, cards) where ``cards[i]`` is the
    cardinality of ``keys[i]`` inside the composite code (the last key
    has stride 1; see :func:`decode_parent_codes`).  A domain of at most
    2^32 codes is combined in ``uint32``, so sorting and comparing the
    codes moves half the bytes ``int64`` would; the per-column codes are
    widened as they are combined, never multiplied in their own
    (possibly one-byte) dtype.  When the composite
    domain would overflow int64 the running key is compressed
    (factorized) and combining continues — equal key tuples still share
    one code, but per-key decoding is lost, so ``cards`` is None.  For a
    single key ``combined`` *is* the dictionary's code array, in its
    narrow storage dtype: callers must not write to it.
    """
    columns = [_column_codes(table, key, dictionaries) for key in keys]
    cards = [max(len(uniques), 1) for _, uniques in columns]
    if not columns:
        return np.zeros(table.num_rows, dtype=np.int64), 1, cards
    if len(columns) == 1:
        return columns[0][0], cards[0], cards
    radix = math.prod(cards)
    if radix <= 1 << 32:
        combined = columns[0][0].astype(np.uint32)
        for (codes, _), card in zip(columns[1:], cards[1:]):
            np.multiply(combined, card, out=combined)
            np.add(combined, codes, out=combined, casting="unsafe")
        return combined, radix, cards
    combined = columns[0][0].astype(np.int64, copy=False)
    radix = cards[0]
    compressed = False
    for (codes, _), card in zip(columns[1:], cards[1:]):
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
    return combined, radix, None if compressed else cards


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
    take the group keys from the dictionaries (by decoding, or as they
    are when every code occurs) and never gather representative rows.
    Per-column codes come through ``dictionaries``
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
    group_codes, structure = code_groups(
        combined, radix, dense=not force_sort and _dense_domain(radix, n)
    )
    structure.parent_codes = decode_parent_codes(group_codes, keys, cards)
    return structure


def code_groups(
    combined: np.ndarray, radix: int, dense: bool
) -> tuple[np.ndarray | None, GroupStructure]:
    """Group non-empty composite codes over ``[0, radix)``.

    ``dense`` takes one ``bincount`` pass over the domain — the cheap
    hash-table regime; otherwise one ``np.sort`` plus boundary detection
    — the sort regime.  Group numbering follows sorted code order either
    way, so both return the same (sorted distinct codes, structure).
    When every code of the domain occurs, group *g* is code *g*: the
    distinct codes come back as None (the identity numbering) and the
    per-row group ids are the codes themselves.
    """
    n = len(combined)
    group_codes: np.ndarray | None
    if dense:
        counts = np.bincount(combined, minlength=radix)
        occupied = counts != 0
        if occupied.all():
            group_codes = None
        else:
            group_codes = np.flatnonzero(occupied)
            counts = counts[group_codes]
    else:
        # np.sort takes one-byte codes many times slower than two-byte
        # ones (docs/performance.md, "Code widths").
        ordered = np.sort(
            combined.astype(np.uint16) if combined.itemsize == 1 else combined
        )
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
        positions = np.flatnonzero(boundary)
        counts = np.diff(positions, append=n)
        group_codes = None if len(positions) == radix else ordered[positions]

    def make_ids() -> np.ndarray:
        if group_codes is None:
            return combined.astype(np.intp, copy=False)
        if radix > min(BINCOUNT_LIMIT, IDS_LOOKUP_SLACK * n):
            return np.searchsorted(group_codes, combined)
        # O(n) rank scatter; identical to searchsorted over the sorted
        # group codes, without the log factor and its cache misses.
        # Only the occupied slots of the table are written or read.
        lookup = np.empty(radix, dtype=np.int64)
        lookup[group_codes] = np.arange(len(group_codes), dtype=np.int64)
        return lookup[combined.astype(np.intp, copy=False)]

    return group_codes, GroupStructure(len(counts), counts, make_ids)


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


# -- the aggregate protocol ---------------------------------------------------
#
# A *state function* (COUNT(*), COUNT(col), SUM, MIN, MAX) stores one
# state column: ``add`` folds input rows into it per group, and partial
# states of it combine by ``add``-ing them with its ``merge`` function.
# Every function lists the state functions it stores and ``finalize``s
# their columns into its answer: a state function is its own state,
# AVG stores SUM and COUNT(col).  NULL inputs (``INT_NULL``, NaN,
# ``STR_NULL``) add nothing, and a group with no non-NULL input holds
# the NULL of its column's kind, so a merge skips an empty partial by
# the same rule.


def _count(values: np.ndarray | None, groups: GroupStructure) -> np.ndarray:
    """COUNT(*): rows per group — free when the grouping pass counted."""
    counts = groups.counts
    if counts is None:
        counts = np.bincount(groups.ids, minlength=groups.n_groups)
    return counts.astype(np.int64, copy=False)


def _count_col(values: np.ndarray, groups: GroupStructure) -> np.ndarray:
    """COUNT(col): non-NULL values per group."""
    valid = (~null_mask(values)).astype(np.int64)
    return np.bincount(
        groups.ids, weights=valid, minlength=groups.n_groups
    ).astype(np.int64)


def _sum(values: np.ndarray, groups: GroupStructure) -> np.ndarray:
    """SUM over non-NULL values; int64 for integer input, else float64."""
    null = null_mask(values)
    has_null = bool(null.any())
    sums = np.bincount(
        groups.ids,
        weights=np.where(null, 0, values) if has_null else values,
        minlength=groups.n_groups,
    )
    if np.issubdtype(values.dtype, np.integer):
        sums = sums.astype(np.int64)
    if has_null:
        empty = np.bincount(groups.ids[~null], minlength=groups.n_groups) == 0
        sums[empty] = null_value(sums.dtype)
    return sums


def _extreme(
    values: np.ndarray, groups: GroupStructure, largest: bool
) -> np.ndarray:
    """MIN (or MAX with ``largest``) over non-NULL values per group."""
    n_groups = groups.n_groups
    reduce = np.maximum if largest else np.minimum
    null = null_mask(values)
    has_null = bool(null.any())
    strings = values.dtype.kind in "SU"
    if groups.starts is not None and not has_null and not strings:
        return reduce.reduceat(values, groups.starts)
    ids = groups.ids
    if has_null:
        values, ids = values[~null], ids[~null]
    if not len(values):
        return np.full(n_groups, null_value(values.dtype), dtype=values.dtype)
    # Order rows by group (and by value within it for strings, which
    # have no min/max ufunc) and take each group's boundary element.
    order = np.lexsort((values, ids)) if strings else np.argsort(ids, kind="stable")
    ordered_ids = ids[order]
    boundary = np.empty(len(order), dtype=bool)
    boundary[0] = True
    boundary[1:] = ordered_ids[1:] != ordered_ids[:-1]
    starts = np.flatnonzero(boundary)
    ordered = values[order]
    if not strings:
        picked = reduce.reduceat(ordered, starts)
    elif largest:
        picked = ordered[np.append(starts[1:], len(ordered)) - 1]
    else:
        picked = ordered[starts]
    if len(starts) == n_groups:
        return picked
    out = np.full(n_groups, null_value(values.dtype), dtype=values.dtype)
    out[ordered_ids[starts]] = picked
    return out


def _mean(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """AVG: SUM / COUNT(col), NaN where no input was non-NULL."""
    means = sums / np.maximum(counts, 1)
    means[counts == 0] = np.nan
    return means


@dataclass(frozen=True)
class AggregateFunction:
    """One aggregate function, defined once for every path.

    Args:
        sql: the SQL keyword naming it (COUNT(*) and COUNT(col) share
            ``COUNT``; ``reads_column`` tells them apart).
        reads_column: whether it reads an input column.
        add: a state function's kernel, ``(values, groups) -> state``.
        merge: the state function whose ``add`` combines partial states
            of this one (COUNT's partial counts are summed).
        states: the state functions it stores; empty for a state
            function, which stores itself.
        finalize: its state columns, in ``states`` order, to the answer.
    """

    sql: str
    reads_column: bool = True
    add: Callable[[Any, GroupStructure], np.ndarray] | None = None
    merge: str | None = None
    states: tuple[str, ...] = ()
    finalize: Callable[..., np.ndarray] = lambda state: state


#: Every aggregate function the engine computes, by ``AggregateSpec.func``.
FUNCTIONS: dict[str, AggregateFunction] = {
    "count": AggregateFunction("COUNT", False, _count, "sum"),
    "count_col": AggregateFunction("COUNT", True, _count_col, "sum"),
    "sum": AggregateFunction("SUM", True, _sum, "sum"),
    "min": AggregateFunction("MIN", True, partial(_extreme, largest=False), "min"),
    "max": AggregateFunction("MAX", True, partial(_extreme, largest=True), "max"),
    "avg": AggregateFunction("AVG", states=("sum", "count_col"), finalize=_mean),
}


def canonical_alias(func: str, column: str | None) -> str:
    """The shared output column name of one state column."""
    return "cnt" if column is None else f"{func}_{column}"


def _states_of(spec: AggregateSpec) -> tuple[AggregateSpec, ...]:
    function = FUNCTIONS[spec.func]
    column = spec.column if function.reads_column else None
    return tuple(
        AggregateSpec(func, column, canonical_alias(func, column))
        for func in function.states or (spec.func,)
    )


def state_specs(aggregates: Iterable[AggregateSpec]) -> tuple[AggregateSpec, ...]:
    """The state columns ``aggregates`` store, canonically named, each
    once, in first-use order — what a grouping computing them carries."""
    return tuple(
        dict.fromkeys(
            state for spec in aggregates for state in _states_of(spec)
        )
    )


def merge_specs(states: Sequence[AggregateSpec]) -> list[AggregateSpec]:
    """Specs that merge partial ``states`` into states of a coarser
    grouping, each under its own name (COUNT(*) becomes SUM(cnt))."""
    specs = []
    for state in states:
        merge = FUNCTIONS[state.func].merge
        assert merge is not None, f"{state.func!r} is not a state function"
        specs.append(AggregateSpec(merge, state.alias, state.alias))
    return specs


def add_states(
    states: Sequence[AggregateSpec],
    groups: GroupStructure,
    column: Callable[[str], np.ndarray],
) -> dict[str, np.ndarray]:
    """Each state column of ``states`` over ``groups``, by alias;
    ``column`` reads an input column by name."""
    added = {}
    for state in states:
        add = FUNCTIONS[state.func].add
        assert add is not None, f"{state.func!r} is not a state function"
        values = None if state.column is None else column(state.column)
        added[state.alias] = add(values, groups)
    return added


def finalize(
    aggregates: Sequence[AggregateSpec],
    states: Mapping[str, np.ndarray] | Table,
    columns: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Add each aggregate's answer, finalized from its state columns in
    ``states``, to the result ``columns`` (the key columns so far).

    Raises:
        SchemaError: an answer's alias names a column already there.
    """
    for spec in aggregates:
        if spec.alias in columns:
            raise SchemaError(f"duplicate output column {spec.alias!r}")
        columns[spec.alias] = FUNCTIONS[spec.func].finalize(
            *(states[state.alias] for state in _states_of(spec))
        )
    return columns


def answer_table(
    table: Table, keys: Sequence[str], aggregates: Sequence[AggregateSpec]
) -> Table:
    """The answer to ``aggregates`` grouped by ``keys`` from ``table``,
    which holds ``keys`` and their state columns.

    ``table`` itself when the aggregates are exactly its state columns
    (as for the default ``COUNT(*) AS cnt``), so it keeps its deferred
    key dictionaries and nothing is copied.
    """
    aggregates = list(aggregates)
    if list(state_specs(aggregates)) == aggregates and table.column_names == (
        *keys,
        *(spec.alias for spec in aggregates),
    ):
        return table
    columns = {key: table[key] for key in keys}
    return Table.wrap(table.name, finalize(aggregates, table, columns))


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
    if assume_sorted:
        group_ids, first, n_groups = sorted_group_boundaries(table, keys)
        # Boundary detection leaves group_ids sorted ascending, so the
        # group starts double as MIN/MAX reduceat offsets (no argsort).
        structure = GroupStructure(
            n_groups, None, lambda: group_ids, first=first, starts=first
        )
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
        columns = key_columns(structure.parent_codes, parent_uniques)
    states = add_states(state_specs(aggregates), structure, table.__getitem__)
    finalize(aggregates, states, columns)
    result_name = name or f"groupby_{'_'.join(keys) or 'all'}"
    if not columns:
        raise SchemaError("group_by needs at least one key or aggregate")
    result = Table.wrap(result_name, columns)
    if structure.parent_codes is not None:
        defer_key_dictionaries(result, structure.parent_codes, parent_uniques)
    return result
