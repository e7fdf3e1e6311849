"""Catalog: named tables, indexes, and temporary-table storage accounting.

The GB-MQO executor materializes intermediate Group By results as
temporary tables and drops them once all children have been computed
(Section 4.4).  The catalog meters the storage those temporaries occupy,
tracking both the current and the peak footprint so tests can verify the
breadth-first / depth-first sequencing actually minimizes peak storage.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

from repro.engine.indexes import Index, IndexSpec
from repro.engine.table import Table
from repro.engine.types import EngineError, SchemaError


class CatalogError(EngineError):
    """A catalog operation referenced a missing or duplicate object."""


class Catalog:
    """Holds base tables, temporary tables and indexes."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._temp_names: set[str] = set()
        self._indexes: dict[str, list[Index]] = {}
        # Guards temp registration, the storage meter, and the version
        # map: the parallel wavefront executor materializes temps from
        # worker threads.
        self._temp_lock = threading.Lock()
        #: Held by the executor across one whole plan run.  Temp names
        #: are deterministic per plan node and the storage meter is read
        #: as before/after deltas, so two interleaved runs would collide
        #: on both; runs on one catalog therefore serialise.  Always
        #: taken before ``_temp_lock``, never while holding it.
        self.run_lock = threading.Lock()
        # Per-table mutation counter.  Any operation that changes a base
        # table's contents or physical order bumps it; the semantic
        # result cache pins entries to the version they were computed
        # against, so a bump invalidates them.
        self._versions: dict[str, int] = {}
        self._invalidation_hooks: list[Callable[[str, int], None]] = []
        self.current_temp_bytes = 0
        self.peak_temp_bytes = 0
        self.total_temp_bytes_written = 0

    # -- base tables ---------------------------------------------------------

    def add_table(self, table: Table) -> Table:
        """Register a base table under its own name."""
        with self._temp_lock:
            if table.name in self._tables:
                raise CatalogError(f"table {table.name!r} already exists")
            self._tables[table.name] = table
        self._indexes.setdefault(table.name, [])
        return table

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def drop(self, name: str) -> None:
        """Drop a base or temporary table (and its indexes)."""
        if name not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        if name in self._temp_names:
            self.drop_temp(name)
            return
        with self._temp_lock:
            del self._tables[name]
        self._indexes.pop(name, None)
        self.bump_version(name)

    # -- versioning -----------------------------------------------------------

    def version(self, name: str) -> int:
        """Current mutation version of ``name`` (0 if never mutated)."""
        with self._temp_lock:
            return self._versions.get(name, 0)

    def bump_version(self, name: str) -> int:
        """Record a mutation of ``name`` and fire invalidation hooks.

        The bump happens under the catalog lock; the hooks fire after
        it is released, so a hook that takes its own lock (the result
        cache's does) never nests inside ``_temp_lock`` — one global
        acquisition order, per the CL210 contract.
        """
        with self._temp_lock:
            version = self._versions.get(name, 0) + 1
            self._versions[name] = version
        for hook in list(self._invalidation_hooks):
            hook(name, version)
        return version

    def add_invalidation_hook(
        self, hook: Callable[[str, int], None]
    ) -> None:
        """Register ``hook(table_name, new_version)``, fired after every
        version bump (the result cache's invalidation wiring)."""
        self._invalidation_hooks.append(hook)

    def replace_table(self, table: Table) -> Table:
        """Swap a base table's contents in place, bumping its version.

        This is the catalog's mutation API: loads, appends, and updates
        modeled by the tests all route through here so dependent cache
        entries are dropped atomically with the swap.
        """
        with self._temp_lock:
            if table.name not in self._tables:
                raise CatalogError(f"no table named {table.name!r}")
            if table.name in self._temp_names:
                raise CatalogError(
                    f"{table.name!r} is a temporary table; replace_table "
                    "applies to base tables"
                )
            self._tables[table.name] = table
        self.bump_version(table.name)
        return table

    # -- temporary tables -----------------------------------------------------

    def materialize_temp(self, table: Table) -> Table:
        """Store a temporary table, charging its size against the meter."""
        size = table.size_bytes()
        with self._temp_lock:
            if table.name in self._tables:
                raise CatalogError(f"table {table.name!r} already exists")
            self._tables[table.name] = table
            self._temp_names.add(table.name)
            self.current_temp_bytes += size
            self.total_temp_bytes_written += size
            self.peak_temp_bytes = max(
                self.peak_temp_bytes, self.current_temp_bytes
            )
        return table

    def drop_temp(self, name: str) -> None:
        """Drop a temporary table, releasing its metered storage."""
        with self._temp_lock:
            if name not in self._temp_names:
                raise CatalogError(f"{name!r} is not a temporary table")
            table = self._tables.pop(name)
            self._temp_names.discard(name)
            self.current_temp_bytes -= table.size_bytes()

    def drop_all_temps(self) -> None:
        for name in list(self._temp_names):
            self.drop_temp(name)

    def is_temp(self, name: str) -> bool:
        return name in self._temp_names

    def temp_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._temp_names))

    def reset_storage_meter(self) -> None:
        """Reset peak/total counters (current must be zero)."""
        with self._temp_lock:
            if self.current_temp_bytes:
                raise CatalogError(
                    "cannot reset the storage meter while temp tables exist"
                )
            self.peak_temp_bytes = 0
            self.total_temp_bytes_written = 0

    def set_peak_temp_bytes(self, value: int) -> None:
        """Settle the all-time peak meter after a run (executor hook).

        The executor samples temp storage at pipeline boundaries and
        writes the run's settled peak back here; routing the write
        through the lock keeps every meter mutation under
        ``_temp_lock`` (the CL209 lock-discipline contract).
        """
        with self._temp_lock:
            self.peak_temp_bytes = value

    # -- indexes ---------------------------------------------------------------

    def create_index(self, table_name: str, spec: IndexSpec) -> Index:
        """Build an index over a base table.

        A clustered index physically re-orders the stored base table, as
        on a real system; only one clustered index per table is allowed.
        """
        table = self.get(table_name)
        existing = self._indexes.setdefault(table_name, [])
        if any(index.name == spec.name for index in existing):
            raise CatalogError(f"index {spec.name!r} already exists")
        if spec.clustered and any(index.clustered for index in existing):
            raise CatalogError(
                f"table {table_name!r} already has a clustered index"
            )
        missing = [c for c in spec.columns if c not in table]
        if missing:
            raise SchemaError(
                f"index {spec.name!r} references missing columns {missing!r}"
            )
        if spec.clustered:
            with self._temp_lock:
                self._tables[table_name] = table.sort_by(
                    spec.columns, name=table_name
                )
            table = self._tables[table_name]
            # Re-encode the physically reordered table now: dictionary
            # encoding is load-time work, not query-time work.
            table.build_dictionaries()
            # The stored table object changed; cached results computed
            # against the old object must not be served.
            self.bump_version(table_name)
        index = Index(spec, table)
        existing.append(index)
        return index

    def drop_index(self, table_name: str, index_name: str) -> None:
        indexes = self._indexes.get(table_name, [])
        remaining = [i for i in indexes if i.name != index_name]
        if len(remaining) == len(indexes):
            raise CatalogError(f"no index named {index_name!r}")
        self._indexes[table_name] = remaining

    def indexes_on(self, table_name: str) -> tuple[Index, ...]:
        return tuple(self._indexes.get(table_name, ()))

    def find_covering_index(
        self, table_name: str, columns: Sequence[str] | Iterable[str]
    ) -> Index | None:
        """Cheapest non-clustered index covering ``columns``, if any."""
        columns = list(columns)
        candidates = [
            index
            for index in self.indexes_on(table_name)
            if not index.clustered and index.covers(columns)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda index: index.size_bytes)
