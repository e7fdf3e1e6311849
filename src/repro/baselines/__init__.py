"""Baselines the paper compares GB-MQO against.

* the naive plan — one Group By per input query, straight off the base
  relation — is :func:`repro.core.plan.naive_plan`, run by
  :meth:`repro.api.Session.run_naive`.
* :mod:`repro.baselines.grouping_sets` — the strategies the paper
  reports observing in a commercial GROUPING SETS implementation:
  shared-sort pipelines when the inputs overlap (CONT), otherwise the
  materialize-the-union plan that degenerates to near-naive cost (SC).
* :mod:`repro.baselines.partial_cube` — the related-work approach
  ([4,14,16]): construct the search lattice up front and greedily pick
  nodes to materialize.  Demonstrates the scaling argument of Section 2:
  lattice construction is exponential in the number of columns.
"""

from repro.baselines.grouping_sets import (
    CommercialGroupingSetsPlanner,
    GroupingSetsOutcome,
)
from repro.baselines.partial_cube import GreedyLatticePlanner

__all__ = [
    "CommercialGroupingSetsPlanner",
    "GreedyLatticePlanner",
    "GroupingSetsOutcome",
]
