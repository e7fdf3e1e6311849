"""Cost model protocol and the caching PlanCoster.

The optimizer never costs plans directly: it goes through a
:class:`PlanCoster`, which (a) memoizes edge costs so a repeated
(parent, child) query is never "sent to the optimizer" twice, and
(b) counts distinct costing calls — the optimization-cost metric the
paper reports in Figures 10(a) and 11(a).

It also answers the cheaper questions the search asks first, each a
floor made from statistics that already exist:
:meth:`PlanCoster.root_cost_bounds`, under every sub-plan rooted at the
union of a pair of roots — a whole walk of pairs as one array
expression — and :meth:`PlanCoster.subplan_cost_bound`, under one
sub-plan.  A floor is not an optimizer call, and it never enters the
exact memos.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

import numpy as np

from repro.core.columnset import BitsetCodec
from repro.core.plan import LogicalPlan, PlanNode, SubPlan
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.stats.cardinality import CardinalityEstimator, floors_of


class CostModel(Protocol):
    """Cost of computing one Group By (or CUBE/ROLLUP) query.

    ``parent`` is None when the child is computed from the base relation
    R; otherwise it is the intermediate node being scanned.
    ``materialize_child`` charges for spooling the child's result to a
    temporary table (needed when the child has children of its own).
    """

    @property
    def estimator(self) -> CardinalityEstimator:
        """The cardinality source the costs are made from."""
        ...

    def edge_cost(
        self,
        parent: PlanNode | None,
        child: PlanNode,
        materialize_child: bool,
    ) -> float:
        ...

    def edge_cost_bound(
        self,
        parent: PlanNode | None,
        child: PlanNode,
        materialize_child: bool,
        known: tuple[frozenset[str], ...],
    ) -> float:
        """A value never above :meth:`edge_cost`, computed by the same
        routine with each cardinality replaced by a floor derived from
        the statistics of the ``known`` column sets — creating none for
        the edge's own nodes and declaring nothing."""
        ...

    def root_terms(self, columns: frozenset[str]) -> tuple[float, ...]:
        """The parts of the edge that materialises the Group By on
        ``columns`` from R that do not depend on its cardinality."""
        ...

    def root_edge_bounds(
        self, terms: np.ndarray, rows: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """That edge for many column sets at once, by the routine
        :meth:`edge_cost_bound` runs: one :meth:`root_terms` row per
        column set, and ``rows()`` their cardinality floors (called only
        if the edge reads them)."""
        ...


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    grown = np.zeros((capacity,) + array.shape[1:], dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class RootArrays:
    """The roots of one search's forest as arrays indexed by sub-plan id:
    column set, bitmask, sub-plan cost, and the estimator's ``(d, f1)``,
    read the first time a floor needs it.  A merge appends its sub-plan;
    nothing is rebuilt.

    Args:
        universe: every column a root may hold.
    """

    def __init__(self, universe: Iterable[str]) -> None:
        self._codec = BitsetCodec(universe)
        # A bitmask of 64 columns or more stays a Python int.
        wide = len(self._codec.universe) > 63
        self.columns: list[frozenset[str]] = []
        self.masks = np.zeros(0, dtype=object if wide else np.int64)
        self.costs = np.zeros(0)
        self.profiles = np.zeros((0, 2))
        self._profiled = np.zeros(0, dtype=bool)

    def append(self, columns: frozenset[str], cost: float) -> None:
        """Add the next sub-plan's root."""
        index = len(self.columns)
        if index == len(self.costs):
            capacity = max(16, 2 * index)
            self.masks = _grown(self.masks, capacity)
            self.costs = _grown(self.costs, capacity)
            self.profiles = _grown(self.profiles, capacity)
            self._profiled = _grown(self._profiled, capacity)
        self.columns.append(columns)
        self.masks[index] = self._codec.encode(columns)
        self.costs[index] = cost

    def read_profiles(
        self,
        roots: np.ndarray,
        profile: Callable[[frozenset[str]], tuple[float, float]],
    ) -> None:
        """Fill in ``profile(columns)`` of those of ``roots`` not read."""
        for root in roots[~self._profiled[roots]].tolist():
            self.profiles[root] = profile(self.columns[root])
            self._profiled[root] = True


class _RootTerms:
    """What the coster remembers about one union of two roots."""

    __slots__ = ("columns", "terms", "statistic")

    def __init__(self, columns: frozenset[str], terms: tuple[float, ...]):
        self.columns = columns
        self.terms = terms
        #: The union's statistic (or a floor needing no subset), once it
        #: exists.
        self.statistic: float | None = None


class PlanCoster:
    """Caches edge and sub-plan costs over an underlying cost model.

    Args:
        model: the cost model to delegate uncached edge costs to.
        metrics: metrics registry; uncached model invocations count into
            ``repro_costmodel_calls_total`` and the computed edge costs
            into the ``repro_costmodel_edge_cost`` histogram (no span per
            call: a TC optimize makes tens of thousands of them).
            Defaults to the process-wide registry (no-op unless enabled).
    """

    def __init__(
        self,
        model: CostModel,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._model = model
        self._metrics = metrics if metrics is not None else get_metrics()
        self._edge_cache: dict[tuple[object, ...], float] = {}
        self._subplan_cache: dict[SubPlan, float] = {}
        self._internal_cache: dict[SubPlan, float] = {}
        # Edge floors, keyed like the exact memo plus the ``known`` sets
        # they were derived from; kept apart so no floor is read as a cost.
        self._edge_bounds: dict[tuple[object, ...], float] = {}
        # Per union of two roots, the terms of its root edge floor.
        self._root_terms: dict[frozenset[str], _RootTerms] = {}
        #: Number of distinct costing requests sent to the model — the
        #: paper's "number of calls to the query optimizer".
        self.optimizer_calls = 0

    @property
    def model(self) -> CostModel:
        return self._model

    def edge_cost(
        self,
        parent: PlanNode | None,
        child: PlanNode,
        materialize_child: bool,
    ) -> float:
        """Cost of computing ``child`` by scanning ``parent``."""
        key = (parent, child, materialize_child)
        cost = self._edge_cache.get(key)
        if cost is None:
            self.optimizer_calls += 1
            cost = self._model.edge_cost(parent, child, materialize_child)
            if self._metrics.enabled:
                self._metrics.inc("repro_costmodel_calls_total")
                self._metrics.observe("repro_costmodel_edge_cost", cost)
            self._edge_cache[key] = cost
        return cost

    def _edge(
        self,
        parent: PlanNode | None,
        child: PlanNode,
        materialize_child: bool,
        known: tuple[frozenset[str], ...] | None,
    ) -> float:
        """:meth:`edge_cost` when ``known`` is None.  Otherwise a floor
        under it: the exact cost if that is already memoised (the
        tightest floor there is), else the model's floor over ``known``."""
        if known is None:
            return self.edge_cost(parent, child, materialize_child)
        cost = self._edge_cache.get((parent, child, materialize_child))
        if cost is None:
            key = (parent, child, materialize_child, known)
            cost = self._edge_bounds.get(key)
            if cost is None:
                cost = self._model.edge_cost_bound(
                    parent, child, materialize_child, known
                )
                self._edge_bounds[key] = cost
        return cost

    def root_cost_bounds(
        self, roots: RootArrays, first: np.ndarray, second: np.ndarray
    ) -> np.ndarray:
        """For each pair ``(first[k], second[k])`` of ``roots``, a value
        never above the :meth:`subplan_cost_bound` (``known`` the two
        roots' column sets) of any sub-plan whose root, a Group By with
        children or a CUBE / multi-column ROLLUP, is on their union: the
        edge that materialises that Group By from R, which each of their
        sums starts with and only adds non-negative terms to.

        Each pair's edge is the model's routine at the estimator's floor
        over the two roots, all pairs as one array expression: per-union
        terms are remembered here, profiles are read once per root.
        """
        floors = floors_of(self._model.estimator)
        _, where, inverse = np.unique(
            roots.masks[first] | roots.masks[second],
            return_index=True,
            return_inverse=True,
        )
        entries: list[_RootTerms] = []
        statistics: list[float] = []
        for i, j in zip(first[where].tolist(), second[where].tolist()):
            columns = roots.columns[i] | roots.columns[j]
            entry = self._root_terms.get(columns)
            if entry is None:
                entry = _RootTerms(columns, self._model.root_terms(columns))
                self._root_terms[columns] = entry
            if entry.statistic is None:
                entry.statistic = floors.statistic(columns)
            entries.append(entry)
            statistics.append(
                np.nan if entry.statistic is None else entry.statistic
            )
        union_rows = np.array(statistics)

        def rows() -> np.ndarray:
            # Pairs whose union has no statistic are floored from their two
            # roots' profiles, under the union's cap.  Reading a profile
            # creates the root's statistic, which may be another pair's
            # union: that pair then reads it.
            open_ = np.flatnonzero(np.isnan(union_rows))
            caps = np.full(len(entries), np.nan)
            if len(open_):
                pending = np.isin(inverse, open_)
                roots.read_profiles(
                    np.union1d(first[pending], second[pending]),
                    floors.profile,
                )
                for u in open_.tolist():
                    entry = entries[u]
                    entry.statistic = floors.statistic(entry.columns)
                    if entry.statistic is None:
                        caps[u] = floors.cap(entry.columns)
                    else:
                        union_rows[u] = entry.statistic
            pair_rows = union_rows[inverse]
            profiled = np.flatnonzero(np.isnan(pair_rows))
            if len(profiled):
                i, j = first[profiled], second[profiled]
                pair_rows[profiled] = floors.profile_floor(
                    np.maximum(roots.profiles[i, 0], roots.profiles[j, 0]),
                    np.maximum(roots.profiles[i, 1], roots.profiles[j, 1]),
                    caps[inverse[profiled]],
                )
            return pair_rows

        terms = np.array([entry.terms for entry in entries])[inverse]
        return self._model.root_edge_bounds(terms, rows)

    def subplan_cost(self, subplan: SubPlan) -> float:
        """Total cost of a sub-plan, including its edge from R."""
        cost = self._subplan_cache.get(subplan)
        if cost is None:
            cost = self._sum_edges(subplan, None)
            self._subplan_cache[subplan] = cost
        return cost

    def subplan_cost_bound(
        self, subplan: SubPlan, known: tuple[frozenset[str], ...]
    ) -> float:
        """A value never above :meth:`subplan_cost`, free of optimizer
        calls: the same edges summed in the same order, each read from
        the exact memo when it is there and as the model's floor over the
        ``known`` column sets when it is not."""
        cost = self._subplan_cache.get(subplan)
        if cost is None:
            cost = self._sum_edges(subplan, known)
        return cost

    def _sum_edges(
        self, subplan: SubPlan, known: tuple[frozenset[str], ...] | None
    ) -> float:
        """The one summation both the cost (``known`` None) and its floor
        go through: a floor holds in floating point only because it adds
        the same terms in the same order."""
        cost = self._edge(None, subplan.node, subplan.is_materialized, known)
        cost += self._internal_cost(subplan, known)
        return cost

    def _internal_cost(
        self, subplan: SubPlan, known: tuple[frozenset[str], ...] | None
    ) -> float:
        """Cost of the edges below ``subplan``'s root, memoised per subtree:
        a merge candidate is built from subtrees costed before, so only its
        new top edges are walked."""
        if not subplan.children:
            return 0.0
        total = self._internal_cache.get(subplan)
        if total is None:
            total = 0.0
            for child in subplan.children:
                total += self._edge(
                    subplan.node, child.node, child.is_materialized, known
                )
                total += self._internal_cost(child, known)
            if known is None:
                self._internal_cache[subplan] = total
        return total

    def plan_cost(self, plan: LogicalPlan) -> float:
        """Total cost of a logical plan (sum over its sub-plans)."""
        return sum(self.subplan_cost(subplan) for subplan in plan.subplans)
