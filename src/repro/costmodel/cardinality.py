"""The Cardinality cost model (Section 3.2.1).

The cost of an edge u -> v is |u|, the (estimated) number of rows of the
table being scanned.  Materialization is free.  This is the model under
which the paper proves both the NP-completeness result (Section 3.4 /
Appendix A) and the soundness of the two pruning techniques (Section
4.3), so the reproduction keeps it exactly as defined.

CUBE and ROLLUP nodes (Section 7.1) are costed to match the executor's
strategy: the full Group By is computed from the parent, then each
remaining grouping is computed from that materialized result.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.core.plan import NodeKind, PlanNode
from repro.stats.cardinality import CardinalityEstimator, rows_lower_bound_of


class CardinalityCostModel:
    """Cost(u -> v) = |u| (estimated rows of the scanned table).

    Args:
        estimator: source of group-count estimates for column sets.
    """

    def __init__(self, estimator: CardinalityEstimator) -> None:
        self._estimator = estimator
        self._rows_lower_bound = rows_lower_bound_of(estimator)

    @property
    def estimator(self) -> CardinalityEstimator:
        return self._estimator

    def edge_cost(
        self,
        parent: PlanNode | None,
        child: PlanNode,
        materialize_child: bool,
    ) -> float:
        return self.edge_cost_bound(parent, child, materialize_child, None)

    def root_terms(self, columns: frozenset[str]) -> tuple[float, ...]:
        """The materialised Group By on ``columns`` from R costs |R|."""
        return (float(self._estimator.base_rows),)

    def root_edge_bounds(
        self, terms: np.ndarray, rows: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """That edge of many unions at once; no cardinality is read."""
        return terms[:, 0]

    def edge_cost_bound(
        self,
        parent: PlanNode | None,
        child: PlanNode,
        materialize_child: bool,
        known: tuple[frozenset[str], ...] | None,
    ) -> float:
        """:meth:`edge_cost` with every cardinality read as its floor over
        ``known`` (``None``: the exact cost).  The cost is a sum of
        cardinalities in a fixed order, so floors on them give a floor on
        it, rounding included."""
        if known is None:
            rows = self._estimator.rows
        else:
            rows = partial(self._rows_lower_bound, known=known)
        scan = (
            float(self._estimator.base_rows)
            if parent is None
            else rows(parent.columns)
        )
        if child.kind is NodeKind.GROUP_BY:
            return scan
        top_rows = rows(child.columns)
        if child.kind is NodeKind.CUBE:
            # Scan the parent once for GROUP BY(all columns); every other
            # grouping of the 2^k lattice is computed from that result.
            remaining = 2 ** len(child.columns) - 2
            return scan + remaining * top_rows
        # ROLLUP: each prefix computed from the next longer prefix.
        order = child.rollup_order
        cost = scan
        for i in range(len(order), 1, -1):
            cost += rows(frozenset(order[:i]))
        return cost
