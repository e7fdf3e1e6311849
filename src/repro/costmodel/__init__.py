"""Cost models for logical plans (Section 3.2).

* :class:`~repro.costmodel.cardinality.CardinalityCostModel` — the
  analytic model of Section 3.2.1: the cost of edge u -> v is |u|.
* :class:`~repro.costmodel.engine_model.EngineCostModel` — the stand-in
  for the commercial query-optimizer cost model of Section 3.2.2:
  byte-based scan + CPU + materialization costs, aware of covering
  indexes and of hypothetical (what-if) tables.
* :class:`~repro.costmodel.base.PlanCoster` — caches edge and sub-plan
  costs and counts optimizer calls, the optimization-cost metric of
  Figures 10 and 11.
"""

from repro.costmodel.base import CostModel, PlanCoster
from repro.costmodel.cardinality import CardinalityCostModel
from repro.costmodel.engine_model import EngineCostModel

__all__ = [
    "CardinalityCostModel",
    "CostModel",
    "EngineCostModel",
    "PlanCoster",
]
