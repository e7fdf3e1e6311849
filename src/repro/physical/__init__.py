"""Physical plan layer: costed operators between the optimizer and engine.

The GB-MQO optimizer searches over *logical* plans (which groupings to
compute from which); this package is the layer underneath: a
:class:`~repro.physical.plan.PhysicalPlan` DAG of typed operators
(``Scan``, ``IndexScan``, ``HashGroupBy``, ``SortGroupBy``,
``Reaggregate``, ``CubeExpand``, ``RollupExpand``, ``Materialize``,
``DropTemp``) that says exactly *how* each grouping runs — which access
path feeds it, which aggregation regime it uses, whether it spools a
temporary — plus the lowering pass (:func:`~repro.physical.lowering.
lower`) that maps a logical plan onto those operators using the cost
model and column statistics.

The executor (:class:`repro.engine.executor.PlanExecutor`) is an
interpreter of physical plans: serial, wavefront and morsel execution
and the naive baseline all run through the same operator set.
"""

from repro.physical.plan import (
    CubeExpand,
    DropTemp,
    GroupingOperator,
    HashGroupBy,
    IndexScan,
    Materialize,
    PhysicalPipeline,
    PhysicalPlan,
    PhysicalPlanError,
    PhysicalWave,
    PhysicalOperator,
    Reaggregate,
    RollupExpand,
    Scan,
    SortGroupBy,
)
from repro.physical.lowering import lower

__all__ = [
    "CubeExpand",
    "DropTemp",
    "GroupingOperator",
    "HashGroupBy",
    "IndexScan",
    "Materialize",
    "PhysicalOperator",
    "PhysicalPipeline",
    "PhysicalPlan",
    "PhysicalPlanError",
    "PhysicalWave",
    "Reaggregate",
    "RollupExpand",
    "Scan",
    "SortGroupBy",
    "lower",
]
