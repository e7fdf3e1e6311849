"""Interval-soundness property tests over the built-in workloads.

For every built-in workload, lowered serially and in wavefront mode,
under the cost model's chosen regimes and with hash/sort grouping
force-overridden: the analyzer must report zero diagnostics (the
est_rows cross-check included), every executed operator's actual
output row count must fall inside its inferred [lo, hi] interval, and
the forced plans must return the chosen plan's result tables.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.dataflow import AnalysisContext, DataflowAnalysis
from repro.analysis.physrules import verify_physical_plan
from repro.api import Session
from repro.cli import WORKLOAD_BUILDERS
from repro.engine.executor import PlanExecutor
from repro.obs import Tracer
from repro.physical.plan import (
    GroupingOperator,
    HashGroupBy,
    Reaggregate,
    Scan,
    SortGroupBy,
)
from repro.workloads.queries import combi_workload

ROWS = 1_500


def low_cardinality_columns(session, limit=4, max_distinct=60):
    """First few columns narrow enough that forced hashing stays in the
    engine's bincount regime even for pair groupings."""
    table = session.catalog.get(session.base_table)
    chosen = []
    for column in table.column_names:
        if session.estimator.rows(frozenset([column])) <= max_distinct:
            chosen.append(column)
        if len(chosen) == limit:
            break
    assert len(chosen) >= 2, "workload has too few narrow columns"
    return chosen


@pytest.fixture(scope="module", params=sorted(WORKLOAD_BUILDERS))
def workload(request):
    table = WORKLOAD_BUILDERS[request.param](ROWS)
    table.build_dictionaries()
    session = Session.for_table(table, statistics="exact")
    queries = combi_workload(low_cardinality_columns(session), 2)
    plan = session.optimize(queries).plan
    return session, plan


def force_strategy(physical, strategy):
    """Rewrite every grouping operator to the given regime, keeping the
    cost model's estimates — execution stays bit-identical either way."""
    cls = HashGroupBy if strategy == "hash" else SortGroupBy
    ops = []
    for op in physical.operators:
        if isinstance(op, Reaggregate):
            ops.append(replace(op, strategy=strategy))
        elif isinstance(op, (HashGroupBy, SortGroupBy)):
            ops.append(
                cls(
                    op_id=op.op_id,
                    est_rows=op.est_rows,
                    est_cost=op.est_cost,
                    est_mem_bytes=op.est_mem_bytes,
                    source=op.source,
                    keys=op.keys,
                    output=op.output,
                    query=op.query,
                    aggregates=op.aggregates,
                    partitions=op.partitions,
                )
            )
        else:
            ops.append(op)
    return replace(physical, operators=tuple(ops))


def run_traced(session, physical, parallelism):
    tracer = Tracer()
    executor = PlanExecutor(
        session.catalog,
        session.base_table,
        tracer=tracer,
        parallelism=parallelism,
        estimator=session.estimator,
    )
    execution = executor.execute_physical(physical)
    return execution, tracer


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("strategy", [None, "hash", "sort"])
def test_executed_rows_within_inferred_intervals(
    workload, parallelism, strategy
):
    session, plan = workload
    # Forced: at this size ``auto`` lowers serially whatever the
    # parallelism.
    mode = "serial" if parallelism == 1 else "wavefront"
    physical = session.lower(plan, parallelism=parallelism, mode=mode)
    assert physical.mode == mode
    if mode == "serial":
        assert all(len(wave.pipelines) == 1 for wave in physical.waves)
    if strategy is not None:
        physical = force_strategy(physical, strategy)
    context = AnalysisContext(
        catalog=session.catalog,
        base_table=session.base_table,
        estimator=session.estimator,
    )
    # Zero diagnostics — including the est_rows interval cross-check.
    assert verify_physical_plan(physical, context=context) == []
    analysis = DataflowAnalysis(physical, context)
    _, tracer = run_traced(session, physical, parallelism)

    checked = 0
    for span in tracer.spans:
        attrs = span.attributes
        if "op_id" not in attrs or "rows_out" not in attrs:
            continue
        op_id = attrs["op_id"]
        actual = float(attrs["rows_out"])
        interval = analysis.state_of(op_id).rows
        assert interval.contains(actual), (
            f"op {op_id} produced {actual:.0f} rows, outside the "
            f"inferred interval {interval}"
        )
        checked += 1
    # Every scan and grouping operator was actually cross-checked.
    expected = sum(
        isinstance(op, (Scan, GroupingOperator))
        for op in physical.operators
    )
    assert checked == expected > 0


def test_forced_regimes_agree(workload):
    """Hash- and sort-forced plans produce the chosen plan's tables,
    bit for bit: the regimes differ only in cost."""
    session, plan = workload
    physical = session.lower(plan)
    chosen, _ = run_traced(session, physical, parallelism=1)
    assert len(chosen.results) > 0
    for strategy in ("hash", "sort"):
        forced, _ = run_traced(
            session, force_strategy(physical, strategy), parallelism=1
        )
        assert set(forced.results) == set(chosen.results)
        for query, expected in chosen.results.items():
            table = forced.results[query]
            assert table.column_names == expected.column_names
            for column in expected.column_names:
                np.testing.assert_array_equal(table[column], expected[column])
