"""Microbenchmarks of planning itself (no execution).

Planning cost is the resource Section 6.4 budgets; these measure the
hill climber and the exhaustive DP directly, at paper-relevant sizes.
"""

import pytest

from repro.core.exhaustive import optimal_plan
from repro.core.optimizer import GbMqoOptimizer, OptimizerOptions
from repro.core.pruning import eager_search
from repro.costmodel.base import PlanCoster
from repro.costmodel.engine_model import EngineCostModel
from repro.experiments.harness import make_session
from repro.workloads.queries import single_column_queries, widen_table
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem


@pytest.fixture(scope="module")
def wide_session(request):
    rows = max(request.config.getoption("--bench-rows") // 4, 10_000)
    base = make_lineitem(rows).project(list(LINEITEM_SC_COLUMNS))
    table = widen_table(base, 24)
    return make_session(table), table


def fresh_coster(session):
    return PlanCoster(
        EngineCostModel(
            session.estimator,
            catalog=session.catalog,
            base_table=session.base_table,
        )
    )


def test_hill_climber_24_columns(benchmark, wide_session):
    session, table = wide_session
    queries = single_column_queries(table.column_names)
    session.estimator.rows(frozenset([table.column_names[0]]))  # warm sample

    def plan():
        return GbMqoOptimizer(fresh_coster(session)).optimize(
            table.name, queries
        )

    result = benchmark(plan)
    result.plan.validate()
    assert result.cost <= result.naive_cost


def test_hill_climber_with_pruning_24_columns(benchmark, wide_session):
    """The eager Figure 5 loop with both Section 4.3 pruners."""
    session, table = wide_session
    queries = single_column_queries(table.column_names)
    options = OptimizerOptions(binary_tree_only=True)

    def plan():
        optimizer = GbMqoOptimizer(fresh_coster(session), options)
        return eager_search(
            optimizer, table.name, queries, subsumption=True, monotonicity=True
        )

    result = benchmark(plan)
    assert result.cost <= result.naive_cost


def test_exhaustive_dp_7_queries(benchmark, wide_session):
    session, table = wide_session
    queries = single_column_queries(table.column_names[:7])

    def plan():
        return optimal_plan(table.name, queries, fresh_coster(session))

    result = benchmark(plan)
    result.plan.validate()
