"""Differential tests: ``GbMqoOptimizer._search`` against the full rescan.

The production search costs each pair once and selects merges from a
heap; :func:`tests.core.support.reference_search` is the Figure 5 loop
as it was, rescanning every pair each iteration.  Both must make the
same merges in the same order, send the same costing calls and create
the same statistics in the same order, under every search option.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Session
from repro.core.optimizer import GbMqoOptimizer, OptimizerOptions
from repro.costmodel.base import PlanCoster
from repro.costmodel.cardinality import CardinalityCostModel
from repro.workloads.queries import (
    containment_workload,
    single_column_queries,
    two_column_queries,
)
from repro.workloads.sales import SALES_COLUMNS, make_sales
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem
from tests.core.support import FakeEstimator, reference_search

ROWS = 3000

OPTIONS = {
    "default": OptimizerOptions(),
    "binary_tree_only": OptimizerOptions(binary_tree_only=True),
    "subsumption_pruning": OptimizerOptions(subsumption_pruning=True),
    "monotonicity_pruning": OptimizerOptions(monotonicity_pruning=True),
    "both_prunings": OptimizerOptions(
        subsumption_pruning=True, monotonicity_pruning=True
    ),
    "enable_cube": OptimizerOptions(enable_cube=True),
    "enable_rollup": OptimizerOptions(enable_rollup=True),
    # CUBE / ROLLUP roots are the pairs monotonicity must not record.
    "operators_and_prunings": OptimizerOptions(
        enable_cube=True,
        enable_rollup=True,
        subsumption_pruning=True,
        monotonicity_pruning=True,
    ),
    "max_storage_bytes": OptimizerOptions(max_storage_bytes=20_000.0),
}


@pytest.fixture(scope="module")
def workloads():
    sales = make_sales(ROWS)
    lineitem = make_lineitem(ROWS)
    return {
        "lineitem_sc": (lineitem, single_column_queries(LINEITEM_SC_COLUMNS)),
        "sales_sc": (sales, single_column_queries(SALES_COLUMNS)),
        "sales_tc": (sales, two_column_queries(SALES_COLUMNS)),
        "lineitem_cont": (
            lineitem,
            containment_workload(
                ["l_shipdate", "l_commitdate", "l_receiptdate"]
            ),
        ),
        "sales_cont": (sales, containment_workload(SALES_COLUMNS[:5])),
    }


def assert_same_search(result, reference):
    assert result.merge_log == reference.merge_log
    assert result.plan == reference.plan
    assert result.cost == reference.cost
    assert result.naive_cost == reference.naive_cost
    assert result.iterations == reference.iterations
    assert result.optimizer_calls == reference.optimizer_calls
    assert result.merges_evaluated == reference.merges_evaluated
    assert (
        result.pairs_pruned_subsumption == reference.pairs_pruned_subsumption
    )
    assert (
        result.pairs_pruned_monotonicity
        == reference.pairs_pruned_monotonicity
    )
    # candidates_considered, pairs_considered, rejections, trajectory, ...
    assert result.telemetry.as_dict() == reference.telemetry.as_dict()


@pytest.mark.parametrize("option_name", sorted(OPTIONS))
@pytest.mark.parametrize(
    "workload",
    ["lineitem_sc", "sales_sc", "sales_tc", "lineitem_cont", "sales_cont"],
)
def test_search_equals_full_rescan(workloads, workload, option_name):
    table, queries = workloads[workload]
    options = OPTIONS[option_name]

    # Fresh sessions: both searches start from empty coster memos and an
    # estimator that has created no statistic yet.
    session = Session.for_table(table, statistics="sampled")
    result = GbMqoOptimizer(session.coster(), options).optimize(
        session.base_table, queries
    )
    twin = Session.for_table(table, statistics="sampled")
    reference = reference_search(
        GbMqoOptimizer(twin.coster(), options), twin.base_table, queries
    )

    assert_same_search(result, reference)
    assert (
        session.estimator.created_statistics
        == twin.estimator.created_statistics
    )


def test_storage_bound_and_pruners_bite(workloads):
    """The option values above must exercise their code, not idle."""
    table, queries = workloads["sales_tc"]

    def run(option_name):
        session = Session.for_table(table, statistics="sampled")
        return GbMqoOptimizer(session.coster(), OPTIONS[option_name]).optimize(
            session.base_table, queries
        )

    assert run("max_storage_bytes").telemetry.candidates_rejected_storage > 0
    both = run("both_prunings")
    assert both.pairs_pruned_subsumption > 0
    assert both.pairs_pruned_monotonicity > 0
    assert run("default").iterations > 5


@settings(max_examples=150, deadline=None)
@given(
    singles=st.lists(st.integers(2, 400), min_size=6, max_size=6),
    overrides=st.dictionaries(
        st.frozensets(st.sampled_from("abcdef"), min_size=2, max_size=4),
        st.integers(2, 5_000),
        max_size=12,
    ),
    queries=st.sets(
        st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=3),
        min_size=2,
        max_size=9,
    ),
    flags=st.fixed_dictionaries(
        {
            "binary_tree_only": st.booleans(),
            "subsumption_pruning": st.booleans(),
            "monotonicity_pruning": st.booleans(),
            "enable_cube": st.booleans(),
            "enable_rollup": st.booleans(),
        }
    ),
)
# (c) + (a,b) proposed CUBE(a,b,c) claiming the required union (a,b,c)
# while that query's own sub-plan stayed in the forest: PV005.
@example(
    singles=[2] * 6,
    overrides={frozenset("ab"): 6, frozenset("abc"): 2},
    queries={frozenset(q) for q in ("a", "b", "c", "ab", "abc")},
    flags={
        "binary_tree_only": False,
        "subsumption_pruning": True,
        "monotonicity_pruning": False,
        "enable_cube": True,
        "enable_rollup": False,
    },
)
def test_search_equals_full_rescan_property(
    singles, overrides, queries, flags
):
    """Property: same search on random cardinalities, overlapping query
    sets and every combination of search flags.  Deltas tie often here,
    which tests the ``(delta, id1, id2)`` order, and the overrides make
    costs irregular enough that a pair found profitable is later barred
    by a pruner, which tests that selection honours the bar."""
    options = OptimizerOptions(**flags)
    ordered = sorted(queries, key=sorted)

    def optimizer():
        estimator = FakeEstimator(
            5_000, dict(zip("abcdef", singles)), overrides
        )
        return GbMqoOptimizer(
            PlanCoster(CardinalityCostModel(estimator)), options
        )

    result = optimizer().optimize("R", ordered)
    reference = reference_search(optimizer(), "R", ordered)
    assert_same_search(result, reference)
