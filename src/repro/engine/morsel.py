"""Morsel-driven two-phase aggregation: row-range partials + merge.

The wavefront executor parallelizes *across* plan nodes, one whole
single-pass kernel per thread (its waves share one row-store pass per
input, but each grouping's kernel runs alone).  Morsel execution turns
that inside out: the base
relation (or a materialized temp) is split into row-range **morsels**;
each morsel pays one shared row-store pass (``Table.touch_range``) for
the whole batch, and each grouping *adds* the morsel's rows into its
aggregates' state columns (:data:`~repro.engine.aggregation.FUNCTIONS`;
AVG stores SUM and COUNT(col)).  Partials then *merge* by composite key
code and *finalize* into final group results, bit-identical to the
single-pass ``group_by`` kernels —
the paper's shared-scan idea applied at the physical layer, with
thread-parallelism *inside* the operator batch (morsel workers run
numpy kernels that release the GIL) instead of across plan nodes.

:class:`MorselGrouping` prepares one grouping for morsel execution and
says whether the two-phase plan applies (``feasible``: a non-empty key
list, a non-empty input, an uncompressed composite code).
:func:`compute_morsel_groupings` runs a batch of feasible groupings:
one shared scan per morsel, all partials, all merges.  The executor
runs an infeasible reader of the same input as a plain single-pass
kernel that the batch's morsels already paid the pass for.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

from repro.engine.aggregation import (
    BINCOUNT_LIMIT,
    AggregateSpec,
    _column_codes,
    _combined_codes,
    add_states,
    code_groups,
    decode_parent_codes,
    defer_key_dictionaries,
    finalize,
    key_columns,
    merge_specs,
    state_specs,
)
from repro.engine.table import Table

if TYPE_CHECKING:  # import cycle guard, mirroring aggregation.py
    from repro.engine.dictcache import DictionaryCache

T = TypeVar("T")

#: Target rows per morsel: big enough that each worker's numpy kernels
#: dominate thread-dispatch overhead, small enough that a full-scale
#: workload yields several morsels to spread across workers.
MORSEL_TARGET_ROWS = 65_536

#: Hard cap on morsels per batch (scheduling overhead is O(morsels)).
MAX_MORSELS = 64

#: Composite-domain ceiling for two-phase execution, as a multiple of
#: the input rows.  Beyond it (near-unique key combinations) every
#: per-morsel regime loses: bincount partials pay O(radix) slot scans
#: per morsel, sort partials pay a comparison sort per morsel, and the
#: merge re-walks the domain — all to rediscover groups the single-pass
#: kernel finds in one bincount.  Such groupings run single-pass.
MORSEL_RADIX_SLACK = 2

#: Dense-domain budget of a morsel's grouping pass: a per-morsel
#: ``bincount`` allocates ``radix`` slots, so the domain must stay small
#: relative to the morsel (or below an absolute floor) for the O(m +
#: radix) pass to beat the O(m log m) sort it replaces.  The slack is
#: generous because morsel feasibility (``MORSEL_RADIX_SLACK``) already
#: rejects domains large relative to the *whole* input, so every radix
#: seen here is at most a small multiple of the morsel budget and the
#: linear slot scan still beats a comparison sort of the morsel.
PARTIAL_BINCOUNT_FLOOR = 1 << 16
PARTIAL_BINCOUNT_SLACK = 64


def usable_cpus() -> int:
    """CPUs this process may run on: the default worker count.

    The scheduler affinity mask where the platform has one (a container
    or ``taskset`` may allow fewer CPUs than the machine has), else
    ``os.cpu_count()``; never below 1.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return os.cpu_count() or 1


class Workers:
    """The calling thread plus up to ``parallelism - 1`` pool threads.

    :meth:`map` runs a list of tasks on all of them: each thread pulls
    the next index from one shared counter until none is left, so the
    caller works instead of waiting.  One instance serves a whole plan
    run — every wave and morsel batch — or one load
    (:meth:`Table.build_dictionaries
    <repro.engine.table.Table.build_dictionaries>`), and starts its
    pool threads at most once, because every thread keeps a malloc
    arena of its own: with a pool per wave, ``peak_rss_mb`` on the
    session benchmark varied from 201 to 232 MB between runs of one
    build, with one per run from 204 to 209 (``docs/performance.md``).
    Never more threads than :func:`usable_cpus`, which would only add
    interpreter-lock churn — so no task run by :meth:`map` may open a
    second instance.
    """

    def __init__(self, parallelism: int, name: str) -> None:
        self.parallelism = max(1, min(parallelism, usable_cpus()))
        self._name = name
        self._pool: ThreadPoolExecutor | None = None

    def map(self, task: Callable[[int], T], count: int) -> list[T]:
        """``[task(0), ..., task(count - 1)]``, in index order whatever
        the completion order.  A failure is re-raised once every thread
        has stopped (the caller's own first)."""
        helpers = min(self.parallelism, count) - 1
        if helpers <= 0:
            return [task(index) for index in range(count)]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.parallelism - 1,
                thread_name_prefix=self._name,
            )
        results: list[T | None] = [None] * count
        indices = iter(range(count))
        lock = threading.Lock()

        def drain() -> None:
            while True:
                with lock:
                    index = next(indices, None)
                if index is None:
                    return
                results[index] = task(index)

        futures = [self._pool.submit(drain) for _ in range(helpers)]
        try:
            drain()
        finally:
            failures = [future.exception() for future in futures]
        for failure in failures:
            if failure is not None:
                raise failure
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Stop the pool threads (waiting for them to exit)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def morsel_count(n_rows: int, parallelism: int = 1) -> int:
    """How many morsels a relation of ``n_rows`` should split into.

    One per ``MORSEL_TARGET_ROWS`` rows, raised to ``parallelism`` (so
    every worker has work) and capped at :data:`MAX_MORSELS` and
    ``n_rows`` (no empty morsels).  A relation that fits in a single
    morsel is never split: slicing a small table ``parallelism`` ways
    multiplies per-morsel fixed costs without adding useful work.
    """
    if n_rows <= 0:
        return 1
    by_rows = -(-n_rows // MORSEL_TARGET_ROWS)  # ceil division
    if by_rows <= 1:
        return 1
    return max(1, min(max(by_rows, parallelism), MAX_MORSELS, n_rows))


def morsel_ranges(n_rows: int, morsels: int) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into up to ``morsels`` contiguous ranges.

    Ranges are near-equal (sizes differ by at most one row), cover every
    row exactly once, and are never empty — the partition is a pure
    function of (n_rows, morsels), so re-runs see identical morsels.
    """
    if n_rows <= 0:
        return []
    morsels = max(1, min(morsels, n_rows))
    bounds = np.linspace(0, n_rows, morsels + 1).astype(np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1])) for i in range(morsels)
    ]


@dataclass
class PartialGroupState:
    """The state columns of one morsel (row range).

    ``codes`` are the *sorted* distinct composite key codes present in
    the morsel; ``states`` maps each state column's alias to its
    per-group partial.  States merge by key code, so any partition of
    the rows yields the same final result.
    """

    codes: np.ndarray
    states: dict[str, np.ndarray]


class MorselGrouping:
    """One grouping prepared for two-phase morsel execution.

    Combines the key columns into composite codes once (through the
    plan-wide dictionary cache), then serves per-morsel
    :meth:`partial` states and the final :meth:`merge`.  ``feasible``
    is False when the two-phase plan cannot apply — empty key list,
    empty input, or a compressed composite code (no per-key layout to
    decode groups from) — and the grouping must run single-pass.

    Args:
        table: input relation (base table or materialized temp).
        keys: grouping columns.
        aggregates: aggregate specs for the output.
        name: result table name.
        dictionaries: plan-wide dictionary cache.
    """

    def __init__(
        self,
        table: Table,
        keys: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        name: str | None = None,
        dictionaries: "DictionaryCache | None" = None,
    ) -> None:
        self.table = table
        self.keys = list(keys)
        self.aggregates = list(aggregates)
        self.states = state_specs(self.aggregates)
        self.name = name
        self._dictionaries = dictionaries
        self._combined: np.ndarray | None = None
        self._radix = 0
        self._cards: list[int] | None = None
        self.feasible = bool(self.keys) and table.num_rows > 0
        if self.feasible:
            radix_cap = max(
                MORSEL_TARGET_ROWS, MORSEL_RADIX_SLACK * table.num_rows
            )
            # Cheap precheck: the composite radix is the product of the
            # per-key dictionary cardinalities, so infeasibility is
            # known before paying for the combined-code array.  The
            # per-column codes come from the plan-wide cache, where an
            # infeasible grouping's single-pass kernel reuses them.
            radix = 1
            for key in self.keys:
                _, uniques = _column_codes(table, key, dictionaries)
                radix *= max(len(uniques), 1)
                if radix > radix_cap:
                    break
            if radix > radix_cap:
                self.feasible = False
            else:
                combined, radix, cards = _combined_codes(
                    table, self.keys, dictionaries
                )
                # The cap is far below the int64 overflow point where
                # _combined_codes compresses and drops the cardinalities.
                assert cards is not None
                self._combined = combined
                self._radix = radix
                self._cards = cards

    def partial(self, start: int, stop: int) -> PartialGroupState:
        """State columns over rows ``[start, stop)``.

        Thread-safe: reads only immutable arrays prepared at
        construction, so morsel workers may call it concurrently.
        """
        assert self._combined is not None
        combined = self._combined[start:stop]
        dense_budget = max(
            PARTIAL_BINCOUNT_FLOOR, PARTIAL_BINCOUNT_SLACK * len(combined)
        )
        codes, groups = code_groups(
            combined,
            self._radix,
            dense=self._radix <= min(BINCOUNT_LIMIT, dense_budget),
        )
        states = add_states(
            self.states,
            groups,
            lambda column: self.table[column][start:stop],
        )
        if codes is None:  # every code of the domain occurs here
            codes = np.arange(self._radix, dtype=combined.dtype)
        return PartialGroupState(codes, states)

    def merge(self, partials: Sequence[PartialGroupState]) -> Table:
        """Merge morsel partials into the final result table.

        Partials merge in morsel order, so float sums accumulate in a
        fixed order.  Output columns, ordering, dtypes, and group
        numbering are identical to the single-pass
        :func:`~repro.engine.aggregation.group_by` result.
        """
        assert self._cards is not None
        all_codes = np.concatenate([state.codes for state in partials])
        codes, groups = code_groups(
            all_codes, self._radix, dense=self._radix <= BINCOUNT_LIMIT
        )
        merged = add_states(
            merge_specs(self.states),
            groups,
            lambda alias: np.concatenate(
                [state.states[alias] for state in partials]
            ),
        )
        parent_codes = decode_parent_codes(codes, self.keys, self._cards)
        parent_uniques = {
            key: _column_codes(self.table, key, self._dictionaries)[1]
            for key in self.keys
        }
        columns = key_columns(parent_codes, parent_uniques)
        result_name = (
            self.name or f"groupby_{'_'.join(self.keys) or 'all'}"
        )
        result = Table.wrap(
            result_name, finalize(self.aggregates, merged, columns)
        )
        defer_key_dictionaries(result, parent_codes, parent_uniques)
        return result


@dataclass
class MorselBatchStats:
    """What one shared-scan batch actually did (for spans/metrics)."""

    morsels: int
    ranges: list[tuple[int, int]]
    bytes_per_morsel: list[int]


def compute_morsel_groupings(
    table: Table,
    groupings: Sequence[MorselGrouping],
    morsels: int,
    workers: Workers | int = 1,
) -> tuple[list[Table], MorselBatchStats]:
    """Run a batch of feasible groupings over shared morsel scans.

    Each morsel pays one ``touch_range`` pass over ``table`` — shared
    by every grouping in the batch — then computes every grouping's
    partial state for that row range.  Morsels run on
    ``workers`` — a plan run's :class:`Workers`, or a thread count to
    open one for this batch (numpy kernels release the GIL); partials
    are merged in morsel-index order regardless of completion order, so
    results and metrics are deterministic.

    Returns:
        (result tables, batch stats) with results in ``groupings``
        order.

    Raises:
        ValueError: a grouping is not ``feasible``.
    """
    if not all(grouping.feasible for grouping in groupings):
        raise ValueError("a morsel batch takes feasible groupings only")
    ranges = morsel_ranges(table.num_rows, morsels) if groupings else []
    bytes_per_morsel = [0] * len(ranges)
    partials: list[list[PartialGroupState | None]] = [
        [None] * len(ranges) for _ in groupings
    ]

    def run_morsel(index: int) -> None:
        start, stop = ranges[index]
        # One shared row-store pass feeds every grouping in the batch.
        bytes_per_morsel[index] = table.touch_range(start, stop)
        for grouping, states in zip(groupings, partials):
            states[index] = grouping.partial(start, stop)

    if ranges:
        if isinstance(workers, Workers):
            workers.map(run_morsel, len(ranges))
        else:
            with Workers(workers, "repro-morsel") as own:
                own.map(run_morsel, len(ranges))

    results = [
        grouping.merge([s for s in states if s is not None])
        for grouping, states in zip(groupings, partials)
    ]
    return results, MorselBatchStats(
        morsels=len(ranges),
        ranges=ranges,
        bytes_per_morsel=bytes_per_morsel,
    )
