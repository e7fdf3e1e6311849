"""Columnar table: an ordered mapping of column name to numpy array."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.engine.types import SchemaError, coerce_column, value_width


#: A deferred dictionary derivation: builds (codes, distinct_values).
DictionaryThunk = Callable[[], tuple[np.ndarray, np.ndarray]]

#: Fewest rows :meth:`Table.build_dictionaries` encodes on a pool of
#: threads; below it the pool costs more than the overlap saves.
PARALLEL_LOAD_MIN_ROWS = 32_768


class Table:
    """An immutable, in-memory, columnar relation.

    Columns are numpy arrays of equal length.  The table never mutates its
    arrays after construction; operators build new tables.

    Args:
        name: relation name (used by the catalog and in generated SQL).
        columns: mapping of column name to a 1-D array-like.  Insertion
            order is the column order.
    """

    def __init__(self, name: str, columns: Mapping[str, Sequence]) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.name = name
        self._columns: dict[str, np.ndarray] = {}
        self._dictionaries: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._pending: dict[str, DictionaryThunk] = {}
        n_rows = None
        for col_name, values in columns.items():
            array = coerce_column(values)
            if n_rows is None:
                n_rows = len(array)
            elif len(array) != n_rows:
                raise SchemaError(
                    f"column {col_name!r} has {len(array)} rows, "
                    f"expected {n_rows}"
                )
            self._columns[col_name] = array
        self._num_rows = int(n_rows if n_rows is not None else 0)

    # -- basic accessors ---------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def __getitem__(self, column: str) -> np.ndarray:
        try:
            return self._columns[column]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Table({self.name!r}, rows={self._num_rows}, "
            f"columns={list(self._columns)})"
        )

    # -- size model ---------------------------------------------------------

    def row_width(self, columns: Iterable[str] | None = None) -> int:
        """Bytes per row over ``columns`` (all columns when None)."""
        names = self.column_names if columns is None else tuple(columns)
        return sum(value_width(self[c]) for c in names)

    def size_bytes(self, columns: Iterable[str] | None = None) -> int:
        """Total storage for ``columns`` (all columns when None)."""
        return self.row_width(columns) * self._num_rows

    # -- dictionary encoding ---------------------------------------------------

    def dictionary(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        """Dense dictionary codes for a column: (codes, distinct_values).

        Engines dictionary-encode columns at load time; grouping then
        works on dense integer codes instead of raw values.  The
        dictionary is built lazily on first use and cached (call
        :meth:`build_dictionaries` to pay the cost up front at load).
        Codes follow the sorted order of the distinct values, so
        ``distinct_values[code]`` recovers the original value; they are
        stored in the narrowest unsigned dtype that holds them
        (:func:`repro.engine.dictcache.code_dtype`), so widen them
        before any arithmetic.  Dense
        integer columns take the O(n) fast path of
        :func:`repro.engine.dictcache.encode_column`; a column with a
        deferred derivation (:meth:`defer_dictionary`) realises that
        instead of encoding raw values.
        """
        # Return the local tuple, never a second lookup: another thread
        # may drop_dictionaries() between the store and the read.
        dictionary = self.cached_dictionary(column)
        if dictionary is None:
            from repro.engine.dictcache import encode_column

            dictionary = encode_column(self[column])
            self._dictionaries[column] = dictionary
        return dictionary

    def cached_dictionary(
        self, column: str
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """A dictionary for ``column`` that needs no raw-value encode, or None.

        Unlike :meth:`dictionary` this never triggers an encode, so
        callers (the plan-wide ``DictionaryCache``) can distinguish a
        hit from work about to happen.  A deferred derivation is
        realised here — it is the cheap integer re-rank a Group By
        result carries in place of a built dictionary.
        """
        dictionary = self._dictionaries.get(column)
        if dictionary is not None:
            return dictionary
        derive = self._pending.get(column)
        if derive is None:
            # A racing realisation stores the dictionary before it
            # forgets the thunk, so a thunk gone missing since the
            # lookup above means the built one is there now.
            return self._dictionaries.get(column)
        dictionary = derive()
        self._dictionaries[column] = dictionary
        self._pending.pop(column, None)
        return dictionary

    def set_dictionary(
        self, column: str, codes: np.ndarray, uniques: np.ndarray
    ) -> None:
        """Attach a precomputed dictionary for ``column``.

        The caller guarantees ``uniques[codes]`` reproduces the column
        (the engine uses this to hand derived ancestor codes to a
        freshly built Group By result instead of re-encoding).
        """
        if column not in self._columns:
            raise SchemaError(
                f"table {self.name!r} has no column {column!r}"
            )
        self._dictionaries[column] = (codes, uniques)
        self._pending.pop(column, None)

    def defer_dictionary(self, column: str, derive: DictionaryThunk) -> None:
        """Attach a dictionary for ``column`` that is built on first use.

        ``derive()`` must return what :meth:`set_dictionary` would be
        given.  A Group By result gets one per key column: most results
        are never re-grouped, so the re-rank runs only for those whose
        dictionary someone asks for.  The thunk lives as long as the
        table does — it must hold per-group arrays only, never the
        grouping's input.
        """
        if column not in self._columns:
            raise SchemaError(
                f"table {self.name!r} has no column {column!r}"
            )
        self._pending[column] = derive

    def build_dictionaries(self) -> None:
        """Eagerly dictionary-encode every column (load-time work).

        Columns with neither a built nor a deferred dictionary are
        encoded concurrently on the usable CPUs — numpy's sort, scatter
        and cumsum kernels release the GIL — largest ``nbytes`` first,
        so the longest encode starts at once and the short ones fill
        in behind it.  Nothing is stored unless every encode succeeds.
        Serial with one usable CPU, one column to encode, or fewer than
        :data:`PARALLEL_LOAD_MIN_ROWS` rows.  Deferred dictionaries are realised
        by their re-rank, never re-encoded.
        """
        from repro.engine import morsel
        from repro.engine.dictcache import encode_column

        columns = sorted(
            (
                column
                for column in self._columns
                if column not in self._dictionaries
                and column not in self._pending
            ),
            key=lambda column: self._columns[column].nbytes,
            reverse=True,
        )
        arrays = [self._columns[column] for column in columns]
        parallelism = min(morsel.usable_cpus(), len(columns))
        if parallelism > 1 and self._num_rows >= PARALLEL_LOAD_MIN_ROWS:
            with morsel.Workers(parallelism, "repro-load") as workers:
                encoded = workers.map(
                    lambda index: encode_column(arrays[index]), len(arrays)
                )
        else:
            encoded = [encode_column(array) for array in arrays]
        self._dictionaries.update(zip(columns, encoded))
        for column in self.column_names:
            self.cached_dictionary(column)

    def drop_dictionaries(self) -> int:
        """Drop every cached dictionary; returns how many built ones were dropped.

        The eviction path of :meth:`DictionaryCache.evict
        <repro.engine.dictcache.DictionaryCache.evict>`: after an
        in-place content change the cached codes are stale and must be
        rebuilt on next use.  Deferred derivations describe the old
        contents too and go with them, uncounted (nothing was built).
        """
        self._pending.clear()
        dropped = len(self._dictionaries)
        self._dictionaries.clear()
        return dropped

    def touch(self, columns: Iterable[str] | None = None) -> int:
        """Read every value of ``columns`` (all when None); return bytes.

        The engine models a *row store*: scanning a table for a query
        reads whole rows regardless of which columns the query uses, as
        in the paper's cost discussion.  ``touch`` makes that cost real
        by paying one memory pass over the data, so wall-clock timings
        reflect row-store scan volume rather than columnar shortcuts.
        """
        return self.touch_range(0, self._num_rows, columns)

    def touch_range(
        self,
        start: int,
        stop: int,
        columns: Iterable[str] | None = None,
    ) -> int:
        """Read rows ``[start, stop)`` of ``columns``; return bytes read.

        The morsel executor splits the row-store scan into row ranges so
        several workers can each pay one slice of the pass while every
        grouping in the batch shares it.  ``touch_range(0, num_rows)``
        is exactly :meth:`touch`.
        """
        names = self.column_names if columns is None else tuple(columns)
        total = 0
        for name in names:
            array = self._columns[name][start:stop]
            if array.dtype.kind in "SU":
                # Strings have no add loop: read their bytes.
                view = np.ascontiguousarray(array).view(np.uint8)
            else:
                view = array
            if len(view):
                # A reduction forces the memory traffic of a scan.
                np.add.reduce(view)
            total += array.nbytes
        return total

    def scan_bytes(self, columns: Iterable[str] | None = None) -> int:
        """Bytes :meth:`touch` would report, without paying the pass.

        Metering helper for execution modes that already paid the
        physical traffic elsewhere (one shared :meth:`touch_range` pass
        per morsel) but must record scan counters identical to the
        serial path's ``touch``-based accounting.
        """
        names = self.column_names if columns is None else tuple(columns)
        return sum(self._columns[name].nbytes for name in names)

    # -- construction helpers -----------------------------------------------

    @classmethod
    def from_rows(
        cls, name: str, column_names: Sequence[str], rows: Iterable[Sequence]
    ) -> "Table":
        """Build a table from an iterable of row tuples (tests/examples)."""
        rows = list(rows)
        if rows:
            columns = {
                col: [row[i] for row in rows]
                for i, col in enumerate(column_names)
            }
        else:
            columns = {col: np.array([], dtype=np.int64) for col in column_names}
        return cls(name, columns)

    def to_rows(self, columns: Sequence[str] | None = None) -> list[tuple[object, ...]]:
        """Materialize rows as python tuples (tests/examples only).

        String values come back as ``str``, decoded from the column's
        UTF-8 bytes, so ``from_rows`` and ``to_rows`` round-trip.
        """
        names = self.column_names if columns is None else tuple(columns)
        arrays = [
            np.char.decode(a, "utf-8") if a.dtype.kind == "S" else a
            for a in (self[c] for c in names)
        ]
        return [tuple(a[i].item() for a in arrays) for i in range(self._num_rows)]

    def iter_rows(self) -> Iterator[tuple[object, ...]]:
        """Iterate rows as tuples (tests/examples only)."""
        return iter(self.to_rows())

    # -- relational helpers ---------------------------------------------------

    def project(self, columns: Sequence[str], name: str | None = None) -> "Table":
        """Return a projection sharing the underlying arrays (zero copy)."""
        missing = [c for c in columns if c not in self._columns]
        if missing:
            raise SchemaError(
                f"table {self.name!r} has no columns {missing!r}"
            )
        projection = Table.wrap(
            name or self.name, {c: self._columns[c] for c in columns}
        )
        # The projection shares arrays, so cached dictionaries carry over
        # (from a snapshot: another thread may drop them meanwhile).
        self._carry_dictionaries(projection, columns)
        return projection

    def _carry_dictionaries(
        self, target: "Table", columns: Iterable[str]
    ) -> None:
        """Hand ``target`` this table's dictionaries for shared ``columns``.

        Built and deferred ones alike, each from a snapshot: another
        thread may drop or realise them meanwhile.  Pending is read
        first — realisation stores before it forgets, so a dictionary
        caught mid-realisation shows up in at least one snapshot.
        """
        pending = self._pending.copy()
        built = self._dictionaries.copy()
        for column in columns:
            if column in built:
                target._dictionaries[column] = built[column]
            elif column in pending:
                target._pending[column] = pending[column]

    def take(self, selector: np.ndarray, name: str | None = None) -> "Table":
        """Return rows selected by a boolean mask or an index array.

        The result never inherits cached dictionaries: row selection
        changes both the code sequence and (possibly) the distinct set,
        so any carried-over dictionary would be stale.
        """
        return Table.wrap(
            name or self.name,
            {c: arr[selector] for c, arr in self._columns.items()},
        )

    def rename(self, name: str) -> "Table":
        """Return the same data under a different relation name."""
        renamed = Table.wrap(name, dict(self._columns))
        # Same arrays, same rows: every cached dictionary stays valid.
        self._carry_dictionaries(renamed, self._columns)
        return renamed

    def with_column(self, column: str, values: Sequence) -> "Table":
        """Return a new table with an extra (or replaced) column.

        Cached dictionaries carry over for the untouched columns (their
        arrays are shared) but never for ``column`` itself — when it
        replaces an existing column, the old dictionary describes the
        old data and must not leak into the derived table.
        """
        columns = dict(self._columns)
        columns[column] = coerce_column(values)
        if len(columns[column]) != self._num_rows:
            raise SchemaError(
                f"new column {column!r} has {len(columns[column])} rows, "
                f"expected {self._num_rows}"
            )
        derived = Table.wrap(self.name, columns)
        self._carry_dictionaries(
            derived, [name for name in self._columns if name != column]
        )
        return derived

    def sort_by(self, columns: Sequence[str], name: str | None = None) -> "Table":
        """Return a copy sorted lexicographically by ``columns``.

        Like :meth:`take`, the result starts with no cached
        dictionaries: the reordered rows need freshly aligned codes.
        """
        order = np.lexsort([self[c] for c in reversed(list(columns))])
        return self.take(order, name=name)

    @classmethod
    def wrap(cls, name: str, columns: dict[str, np.ndarray]) -> "Table":
        """Internal fast-path constructor that skips coercion/validation.

        Callers must pass already-validated arrays of equal length.
        """
        table = cls.__new__(cls)
        table.name = name
        table._columns = columns
        table._dictionaries = {}
        table._pending = {}
        table._num_rows = len(next(iter(columns.values()))) if columns else 0
        return table
