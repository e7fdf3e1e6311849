"""Cost model protocol and the caching PlanCoster.

The optimizer never costs plans directly: it goes through a
:class:`PlanCoster`, which (a) memoizes edge costs so a repeated
(parent, child) query is never "sent to the optimizer" twice, and
(b) counts distinct costing calls — the optimization-cost metric the
paper reports in Figures 10(a) and 11(a).

It also answers the cheaper questions the search asks first, each a
floor made from statistics that already exist:
:meth:`PlanCoster.root_cost_bound`, under every sub-plan rooted at a
column set, and :meth:`PlanCoster.subplan_cost_bound`, under one
sub-plan.  A floor is not an optimizer call, and it never enters the
exact memos.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.plan import LogicalPlan, PlanNode, SubPlan
from repro.obs.metrics import MetricsRegistry, get_metrics


class CostModel(Protocol):
    """Cost of computing one Group By (or CUBE/ROLLUP) query.

    ``parent`` is None when the child is computed from the base relation
    R; otherwise it is the intermediate node being scanned.
    ``materialize_child`` charges for spooling the child's result to a
    temporary table (needed when the child has children of its own).
    """

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

    def root_cost_bound(
        self, columns: frozenset[str], known: tuple[frozenset[str], ...]
    ) -> float:
        """A value never above the :meth:`subplan_cost_bound` (same
        ``known``) of any sub-plan whose root, a Group By with children
        or a CUBE / multi-column ROLLUP, is on ``columns``: the edge
        that materialises that Group By from R, which each of their sums
        starts with and only adds non-negative terms to."""
        return self._edge(None, PlanNode(columns), True, known)

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
