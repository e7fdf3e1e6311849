"""Per-column statistics: the catalog-level stats a real optimizer keeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.table import Table
from repro.engine.types import column_kind, null_mask, value_width
from repro.stats.histogram import EquiDepthHistogram, build_histogram


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column.

    Attributes:
        column: column name.
        n_rows: rows in the table the stats were built over.
        n_distinct: exact or estimated distinct value count.
        null_fraction: fraction of NULL values.
        avg_width: average bytes per value.
        min_value / max_value: extreme values (None for empty columns).
        histogram: equi-depth histogram, when built.
        estimated: whether n_distinct came from a sample estimator.
    """

    column: str
    n_rows: int
    n_distinct: float
    null_fraction: float
    avg_width: float
    min_value: object = None
    max_value: object = None
    histogram: EquiDepthHistogram | None = None
    estimated: bool = False

    def density(self) -> float:
        """Distinct values per row: 1.0 means a key column."""
        if self.n_rows == 0:
            return 0.0
        return self.n_distinct / self.n_rows


def exact_column_stats(
    table: Table, column: str, with_histogram: bool = True
) -> ColumnStats:
    """Build exact statistics over a full column scan."""
    values = table[column]
    n = len(values)
    kind = column_kind(values)
    nulls = int(null_mask(values).sum())
    if n == 0:
        return ColumnStats(column, 0, 0.0, 0.0, float(value_width(values)))
    distinct = int(len(np.unique(values)))
    if kind == "str":
        lengths = np.char.str_len(values)
        avg_width = float(lengths.mean()) if n else 0.0
    else:
        avg_width = float(value_width(values))
    if kind == "str":
        # numpy's min/max ufuncs have no string loop; sort instead.
        ordered = np.sort(values)
        ordered_min, ordered_max = ordered[0].item(), ordered[-1].item()
    else:
        ordered_min = np.min(values).item()
        ordered_max = np.max(values).item()
    histogram = build_histogram(column, values) if with_histogram else None
    return ColumnStats(
        column=column,
        n_rows=n,
        n_distinct=float(distinct),
        null_fraction=nulls / n,
        avg_width=avg_width,
        min_value=ordered_min,
        max_value=ordered_max,
        histogram=histogram,
        estimated=False,
    )
