"""Database statistics: the substrate behind the optimizer cost model.

The paper's query-optimizer cost model (Section 3.2.2) relies on the
DBMS's ability to estimate the cardinality (number of groups) of any
Group By query, including over hypothetical ("what-if") tables that do
not exist yet.  This package provides:

* uniform row sampling (:mod:`repro.stats.sampler`);
* sampling-based distinct-value estimators — GEE, Chao, first-order
  jackknife and their hybrid, per Haas et al. VLDB '95, reference [13]
  of the paper
  (:mod:`repro.stats.distinct`);
* equi-depth histograms (:mod:`repro.stats.histogram`);
* per-column statistics objects (:mod:`repro.stats.column_stats`);
* group-by cardinality estimation over column *sets*, exact or
  sample-scaled, with metered statistics creation for the Section 6.7
  experiment (:mod:`repro.stats.cardinality`);
* the hypothetical-table registry mirroring commercial what-if APIs
  (:mod:`repro.stats.whatif`).
"""

from repro.stats.cardinality import (
    CardinalityEstimator,
    ExactCardinalityEstimator,
    SampledCardinalityEstimator,
)
from repro.stats.column_stats import ColumnStats
from repro.stats.manager import StatisticsManager
from repro.stats.whatif import HypotheticalTable, WhatIfRegistry

__all__ = [
    "CardinalityEstimator",
    "ColumnStats",
    "ExactCardinalityEstimator",
    "HypotheticalTable",
    "SampledCardinalityEstimator",
    "StatisticsManager",
    "WhatIfRegistry",
]
