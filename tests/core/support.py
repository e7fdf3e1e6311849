"""Test helpers: synthetic cardinality estimators for optimizer tests."""

from __future__ import annotations


class FakeEstimator:
    """Cardinality oracle with explicit per-set overrides.

    Args:
        base_rows: |R|.
        singles: cardinality of each single column.
        overrides: explicit cardinalities for multi-column sets; sets
            not listed default to min(product of singles, base_rows).
    """

    def __init__(
        self,
        base_rows: int,
        singles: dict[str, float],
        overrides: dict[frozenset, float] | None = None,
    ) -> None:
        self._base_rows = base_rows
        self._singles = dict(singles)
        self._overrides = {
            frozenset(k): v for k, v in (overrides or {}).items()
        }

    @property
    def base_rows(self) -> int:
        return self._base_rows

    def rows(self, columns: frozenset) -> float:
        columns = frozenset(columns)
        if not columns:
            return 1.0
        if columns in self._overrides:
            return self._overrides[columns]
        product = 1.0
        for column in columns:
            product *= self._singles[column]
        return min(product, float(self._base_rows))

    def row_width(self, columns: frozenset) -> float:
        return 8.0 * len(columns) + 8.0


class SlackEstimator(FakeEstimator):
    """A ``FakeEstimator`` that can bound: its floor is a fixed fraction
    of the true cardinality — valid whatever the overrides are, and as
    loose as the search has to cope with (0.0 makes every pair look as
    good as a merge can be)."""

    def __init__(self, slack, *args):
        super().__init__(*args)
        self._slack = slack

    def rows_lower_bound(self, columns, known):
        return self.rows(columns) * self._slack

