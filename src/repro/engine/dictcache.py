"""Shared dictionary encoding: O(n) factorize kernels and a plan-wide cache.

The GB-MQO premise is that the N queries of a workload share work, and the
most-shared work of all is turning raw key columns into dense dictionary
codes.  Before this module existed, every Group By node re-factorized its
key columns with sort-based ``np.unique`` (O(n log n) with a large
constant); now:

* :func:`encode_column` is the one factorize kernel the engine uses.  For
  integer columns whose value range is dense relative to the row count it
  runs in O(n) — one ``min``/``max`` pass, one boolean-presence scatter,
  one rank gather — and produces output *bit-identical* to
  ``np.unique(..., return_inverse=True)`` (codes follow the sorted order
  of the distinct values).  String columns are packed into big-endian
  integer words and ranked word by word (integer sorts, never a sort of
  the strings themselves), with the same bit-identical output.  Floats
  and wide-range integers take the sort-based path.
* :func:`legacy_encode` is the pre-existing sort-based kernel, kept as the
  reference implementation (tests pin ``encode_column`` against it).
* :class:`DictionaryCache` is the plan-wide cache the executor threads
  through every Group By: each (table, column) pair is factorized at most
  once per plan execution, even when many plan nodes touch the same base
  column and even when nodes run concurrently on the parallel wavefront
  executor (per-key locks make the encode happen exactly once).

A materialized ancestor's key codes are also reused: ``group_by`` leaves
its result a *deferred derivation* per key column (see
``aggregation.defer_key_dictionaries`` and ``Table.defer_dictionary``) —
an integer re-rank of the per-group input codes, run the first time
someone asks the result for that dictionary.  A descendant's encode is
then a cache hit rather than a fresh ``np.unique`` over raw values, and
a result nobody re-groups never builds one.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.metrics import MetricsRegistry, get_metrics

if TYPE_CHECKING:  # import cycle guard: Table.dictionary uses our kernels
    from repro.engine.table import Table

#: Widest dense integer range the O(n) fast path will allocate lookup
#: tables for, as a multiple of the row count.  Beyond it the scatter
#: tables would dominate the sort they replace.
DENSE_RANGE_SLACK = 4

#: Absolute floor for the dense-range budget, so tiny tables with a
#: moderately wide domain (e.g. 100 rows over [0, 1000)) still take the
#: O(n + range) path instead of a sort.
DENSE_RANGE_FLOOR = 1 << 16

#: Hard cap on the dense-range table size, independent of row count.
DENSE_RANGE_LIMIT = 1 << 26


def legacy_encode(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort-based factorize: (codes, distinct_values) via ``np.unique``.

    The pre-cache kernel, retained as the reference implementation and
    the path for floats and integers too wide for the dense range.
    """
    uniques, inverse = np.unique(array, return_inverse=True)
    return inverse.astype(np.int64, copy=False), uniques


def _dense_range_budget(n_rows: int) -> int:
    return min(max(DENSE_RANGE_SLACK * n_rows, DENSE_RANGE_FLOOR), DENSE_RANGE_LIMIT)


def _scatter_rank(shifted: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks of ints in ``[0, span)``: (ranks, presence mask)."""
    present = np.zeros(span, dtype=bool)
    present[shifted] = True
    # rank[v] = number of distinct values <= v, minus one: the
    # dense code of value v in sorted-distinct order.
    rank = np.cumsum(present, dtype=np.int64)
    rank -= 1
    return rank[shifted], present


def _dense_rank(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of a non-empty integer array: (ranks, n_distinct)."""
    lo = key.min()
    span = int(key.max()) - int(lo) + 1
    if span <= _dense_range_budget(len(key)):
        ranks, present = _scatter_rank((key - lo).astype(np.int64), span)
        return ranks, int(np.count_nonzero(present))
    order = np.argsort(key)
    ordered = key[order]
    sorted_ranks = np.empty(len(key), dtype=np.int64)
    sorted_ranks[0] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=sorted_ranks[1:])
    np.cumsum(sorted_ranks, out=sorted_ranks)
    ranks = np.empty_like(sorted_ranks)
    ranks[order] = sorted_ranks
    return ranks, int(sorted_ranks[-1]) + 1


def _encode_strings(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize a ``U`` column by ranking packed integer words.

    Each character is narrowed to the fewest big-endian bytes that hold
    the column's largest code point, and each row is zero-padded to
    whole 8-byte words read as big-endian integers, so integer order
    of the word tuple is numpy's code-point order of the strings
    (trailing-NUL padding and ``""`` included).  Words are folded in
    from the most significant: ``codes * k_j + rank(word_j)`` stays
    below ``n**2`` and is re-ranked densely, and the fold stops once
    every row is its own group.  Words equal on every row are skipped.
    """
    n = len(array)
    native = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("="))
    chars = native.view(np.uint32).reshape(n, native.dtype.itemsize // 4)
    top = int(chars.max(initial=0))
    char_bytes = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
    width = chars.shape[1] * char_bytes
    n_words = -(-width // 8)
    packed = np.zeros((n, n_words * 8), dtype=np.uint8)
    packed[:, :width] = (
        chars.astype(f">u{char_bytes}").view(np.uint8).reshape(n, width)
    )
    words = packed.view(">u8").T.astype(np.uint64, order="C")
    # The last word's padding bytes are zero on every row: shifting them
    # out keeps its order and lets a narrow tail take the dense path.
    words[-1] >>= np.uint64(8 * (n_words * 8 - width))
    # k: groups told apart so far — one (every row equal) unless empty.
    codes, k = np.zeros(n, dtype=np.int64), min(n, 1)
    for j in np.flatnonzero((words != words[:, :1]).any(axis=1)):
        if k == n:
            break
        if k == 1:
            codes, k = _dense_rank(words[j])
        else:
            word_codes, k_j = _dense_rank(words[j])
            codes, k = _dense_rank(codes * k_j + word_codes)
    representative = np.empty(k, dtype=np.intp)
    representative[codes] = np.arange(n)
    return codes, array[representative]


def encode_column(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize one column into dense codes: (codes, distinct_values).

    Codes follow the sorted order of the distinct values — identical to
    :func:`legacy_encode` — so the two kernels are interchangeable and
    downstream composite-code arithmetic is unaffected by which one ran.

    Integer columns whose value span ``max - min + 1`` fits the dense
    budget take the O(n) path.  A column containing the ``INT_NULL``
    sentinel (``int64`` min) has an astronomically wide span and thus
    falls back to the sort path automatically — no special-casing.
    String columns of any byte order or stride take
    :func:`_encode_strings`.
    """
    if array.dtype.kind == "U":
        return _encode_strings(array)
    if len(array) and np.issubdtype(array.dtype, np.integer):
        lo = int(array.min())
        hi = int(array.max())
        # Span computed in python ints: immune to int64 overflow when
        # the column holds INT_NULL alongside large positives.
        span = hi - lo + 1
        if span <= _dense_range_budget(len(array)):
            shifted = (array - lo).astype(np.int64, copy=False)
            codes, present = _scatter_rank(shifted, span)
            uniques = (np.flatnonzero(present) + lo).astype(
                array.dtype, copy=False
            )
            return codes, uniques
    return legacy_encode(array)


class DictionaryCache:
    """Plan-wide dictionary cache: each column factorized at most once.

    The executor creates one per plan execution (or accepts a shared one
    for serving workloads) and passes it into every Group By.  Lookups
    first consult the table's own attached dictionaries — which is how a
    materialized ancestor's derived key codes get reused — then fall
    back to encoding, guarded by a per-(table, column) lock so
    concurrent wavefront workers never duplicate the encode work.

    Attributes:
        hits: lookups served without factorizing.
        misses: lookups that had to factorize the column.
        evictions: dictionaries dropped via :meth:`evict`.

    Args:
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry`; eviction
            events are counted into it immediately
            (``repro_dictcache_evictions_total``), while hit/miss deltas
            are folded in per plan execution by the executor.  Defaults
            to the process-wide registry (no-op unless enabled).
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._key_locks: dict[tuple[int, str], threading.Lock] = {}
        self._metrics = metrics if metrics is not None else get_metrics()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def codes(self, table: Table, column: str) -> tuple[np.ndarray, np.ndarray]:
        """Dense codes and distinct values for ``table[column]``."""
        cached = table.cached_dictionary(column)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return cached
        key = (id(table), column)
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            # Double-check under the key lock: another worker may have
            # encoded this column while we waited.
            cached = table.cached_dictionary(column)
            if cached is not None:
                with self._lock:
                    self.hits += 1
                return cached
            encoded = table.dictionary(column)
            with self._lock:
                self.misses += 1
            return encoded

    def evict(self, table: Table) -> int:
        """Drop a table's cached dictionaries and this cache's locks for it.

        Serving workloads that keep one cache warm across plan
        executions call this when a base relation's contents change
        (stale codes must never be reused); returns the number of
        dictionaries dropped and counts them as evictions.
        """
        dropped = table.drop_dictionaries()
        with self._lock:
            for key in [k for k in self._key_locks if k[0] == id(table)]:
                del self._key_locks[key]
            self.evictions += dropped
        if dropped:
            self._metrics.inc(
                "repro_dictcache_evictions_total", dropped, table=table.name
            )
        return dropped

    def stats(self) -> dict[str, int]:
        """Snapshot of the hit/miss counters (for spans and benchmarks)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
