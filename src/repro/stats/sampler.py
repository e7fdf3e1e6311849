"""Uniform row sampling of a table.

Commercial optimizers build many statistics from one table sample; the
paper leans on that to amortize statistics-creation cost (Sections 3.2.2
and 6.7).  :class:`TableSampler` takes one sample per table and serves
every statistic built afterwards from it, metering the one-time cost.
The sample is a row-index array: a statistic reads only the sampled rows
of the columns it covers.
"""

from __future__ import annotations

import numpy as np

from repro.engine.table import Table


class TableSampler:
    """Draws and caches a uniform row sample of a table.

    Args:
        table: the relation to sample.
        sample_rows: target sample size (capped at the table size).
        seed: RNG seed for reproducibility.
    """

    def __init__(self, table: Table, sample_rows: int = 10_000, seed: int = 0) -> None:
        self._table = table
        self._target = min(int(sample_rows), table.num_rows)
        self._seed = seed
        self._indices: np.ndarray | None = None
        self.rows_scanned_for_sample = 0

    @property
    def table(self) -> Table:
        return self._table

    @property
    def sample_fraction(self) -> float:
        if self._table.num_rows == 0:
            return 1.0
        return self._target / self._table.num_rows

    def indices(self) -> np.ndarray:
        """The sampled row numbers, ascending, drawn on first use.

        Drawing the sample charges one scan of the base table to the
        metering counter (a real system reads pages to sample them).
        """
        if self._indices is None:
            rng = np.random.default_rng(self._seed)
            n = self._table.num_rows
            if self._target >= n:
                indices = np.arange(n)
            else:
                indices = rng.choice(n, size=self._target, replace=False)
                indices.sort()
            self._indices = indices
            self.rows_scanned_for_sample = n
        return self._indices

