"""Equi-depth histograms over single columns.

Commercial optimizers keep histograms to estimate selectivities and value
distributions; the engine cost model uses them for average-group-size
reasoning, and the data-quality example prints them to analysts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.types import column_kind


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket: [low, high] with ``rows`` rows and
    ``distinct`` distinct values inside."""

    low: object
    high: object
    rows: int
    distinct: int


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram: every bucket holds ~rows/buckets rows."""

    column: str
    buckets: tuple[Bucket, ...]
    total_rows: int

    def estimate_rows_between(self, low, high) -> float:
        """Rows with low <= value <= high, assuming uniformity in buckets.

        A string column's bounds are its UTF-8 bytes; ``str`` bounds
        are encoded to compare with them.
        """
        low, high = (
            bound.encode() if isinstance(bound, str) else bound
            for bound in (low, high)
        )
        total = 0.0
        for bucket in self.buckets:
            if bucket.high < low or bucket.low > high:
                continue
            total += bucket.rows
        return total

    def selectivity(self, low, high) -> float:
        if self.total_rows == 0:
            return 0.0
        return self.estimate_rows_between(low, high) / self.total_rows


def build_histogram(
    column_name: str, values: np.ndarray, n_buckets: int = 20
) -> EquiDepthHistogram:
    """Build an equi-depth histogram over a column.

    String columns are histogrammed in lexicographic order, numerics in
    value order — both via a sort, as a commercial system would during a
    statistics build (full scan).
    """
    n = len(values)
    if n == 0:
        return EquiDepthHistogram(column_name, (), 0)
    column_kind(values)  # validates dtype
    ordered = np.sort(values)
    n_buckets = max(1, min(n_buckets, n))
    edges = np.linspace(0, n, n_buckets + 1).astype(np.int64)
    buckets = []
    for i in range(n_buckets):
        start, stop = int(edges[i]), int(edges[i + 1])
        if stop <= start:
            continue
        chunk = ordered[start:stop]
        buckets.append(
            Bucket(
                low=chunk[0].item(),
                high=chunk[-1].item(),
                rows=stop - start,
                distinct=int(len(np.unique(chunk))),
            )
        )
    return EquiDepthHistogram(column_name, tuple(buckets), n)
