"""Cost model protocol and the caching PlanCoster.

The optimizer never costs plans directly: it goes through a
:class:`PlanCoster`, which (a) memoizes edge costs so a repeated
(parent, child) query is never "sent to the optimizer" twice, and
(b) counts distinct costing calls — the optimization-cost metric the
paper reports in Figures 10(a) and 11(a).
"""

from __future__ import annotations

from typing import Protocol

from repro.core.plan import LogicalPlan, PlanNode, SubPlan
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import NOOP_TRACER, Tracer


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


class PlanCoster:
    """Caches edge and sub-plan costs over an underlying cost model.

    Args:
        model: the cost model to delegate uncached edge costs to.
        tracer: span tracer; when tracing is enabled every uncached
            model invocation counts into ``costmodel.calls`` and its
            cost into the ``costmodel.edge_cost`` histogram (no span per
            call: a TC optimize makes tens of thousands of them).
        metrics: metrics registry; uncached model invocations count into
            ``repro_costmodel_calls_total`` and the computed edge costs
            into the ``repro_costmodel_edge_cost`` histogram.  Defaults
            to the process-wide registry (no-op unless enabled).
    """

    def __init__(
        self,
        model: CostModel,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._model = model
        self._tracer = tracer or NOOP_TRACER
        self._metrics = metrics if metrics is not None else get_metrics()
        self._edge_cache: dict[tuple[object, ...], float] = {}
        self._subplan_cache: dict[SubPlan, float] = {}
        self._internal_cache: dict[SubPlan, float] = {}
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
        if key not in self._edge_cache:
            self.optimizer_calls += 1
            cost = self._model.edge_cost(parent, child, materialize_child)
            if self._tracer.enabled:
                self._tracer.count("costmodel.calls")
                self._tracer.observe("costmodel.edge_cost", cost)
            if self._metrics.enabled:
                self._metrics.inc("repro_costmodel_calls_total")
                self._metrics.observe("repro_costmodel_edge_cost", cost)
            self._edge_cache[key] = cost
        return self._edge_cache[key]

    def subplan_cost(self, subplan: SubPlan) -> float:
        """Total cost of a sub-plan, including its edge from R."""
        if subplan not in self._subplan_cache:
            cost = self.edge_cost(None, subplan.node, subplan.is_materialized)
            cost += self._internal_cost(subplan)
            self._subplan_cache[subplan] = cost
        return self._subplan_cache[subplan]

    def _internal_cost(self, subplan: SubPlan) -> float:
        """Cost of the edges below ``subplan``'s root, memoised per subtree:
        a merge candidate is built from subtrees costed before, so only its
        new top edges are walked."""
        if not subplan.children:
            return 0.0
        total = self._internal_cache.get(subplan)
        if total is None:
            total = 0.0
            for child in subplan.children:
                total += self.edge_cost(
                    subplan.node, child.node, child.is_materialized
                )
                total += self._internal_cost(child)
            self._internal_cache[subplan] = total
        return total

    def plan_cost(self, plan: LogicalPlan) -> float:
        """Total cost of a logical plan (sum over its sub-plans)."""
        return sum(self.subplan_cost(subplan) for subplan in plan.subplans)
