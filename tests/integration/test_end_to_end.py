"""End-to-end integration: THE invariant of the whole system.

Whatever the optimizer decides — merge shapes, pruning, binary
restriction, CUBE/ROLLUP nodes, covering indexes, storage-minimizing
schedules — executing the optimized plan must return exactly the same
result tables as executing the naive plan.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Session
from repro.core.optimizer import GbMqoOptimizer, OptimizerOptions
from repro.core.pruning import eager_search
from repro.engine.table import Table
from repro.workloads.queries import single_column_queries, two_column_queries
from tests.conftest import brute_force_group_by, result_as_dict


def assert_same_results(session, plan_result, naive_result, queries):
    for query in set(map(frozenset, queries)):
        got = sorted(plan_result.results[query].to_rows())
        expected = sorted(naive_result.results[query].to_rows())
        assert got == expected, f"mismatch for {sorted(query)}"


def random_table(seed, n_rows=800, n_columns=5):
    rng = np.random.default_rng(seed)
    columns = {}
    for i in range(n_columns):
        card = int(rng.choice([2, 5, 30, 200, n_rows]))
        columns[f"c{i}"] = rng.integers(0, card, n_rows)
    # A correlated pair and a string column round out the profile.
    columns["c_corr"] = columns["c0"] // 2
    columns["c_txt"] = rng.choice(np.array(["aa", "bb", "cc"]), n_rows)
    return Table("t", columns)


#: (search options, Section 4.3 pruners): with pruners, the plan is the
#: eager Figure 5 loop's (``eager_search``), the only one that prunes.
OPTION_GRID = [
    (OptimizerOptions(), None),
    (OptimizerOptions(binary_tree_only=True), None),
    (
        OptimizerOptions(binary_tree_only=True),
        {"subsumption": True, "monotonicity": True},
    ),
    (OptimizerOptions(enable_cube=True, enable_rollup=True), None),
]


def optimize(session, queries, options):
    options, pruners = options
    if pruners is None:
        return session.optimize(queries, options)
    optimizer = GbMqoOptimizer(session.coster(), options)
    return eager_search(optimizer, session.base_table, queries, **pruners)


@pytest.mark.parametrize("options", OPTION_GRID)
@pytest.mark.parametrize("statistics", ["exact", "sampled"])
def test_sc_workload_matches_naive(options, statistics):
    table = random_table(seed=1)
    session = Session.for_table(table, statistics=statistics)
    queries = single_column_queries(table.column_names)
    result = optimize(session, queries, options)
    result.plan.validate()
    plan_run = session.execute(result.plan)
    naive_run = session.run_naive(queries)
    assert_same_results(session, plan_run, naive_run, queries)
    assert session.catalog.temp_names() == ()


@pytest.mark.parametrize("options", OPTION_GRID[:2])
def test_tc_workload_matches_naive(options):
    table = random_table(seed=2)
    session = Session.for_table(table, statistics="exact")
    queries = two_column_queries(table.column_names[:5])
    result = optimize(session, queries, options)
    plan_run = session.execute(result.plan)
    naive_run = session.run_naive(queries)
    assert_same_results(session, plan_run, naive_run, queries)


def test_eager_pruned_plan_matches_brute_force():
    """A Section 4.3-pruned plan runs through ``Session.execute`` like
    any other, with every result equal to a row-by-row count."""
    table = random_table(seed=3, n_rows=2000)
    session = Session.for_table(table, statistics="exact")
    queries = two_column_queries(table.column_names[:5])
    result = optimize(session, queries, OPTION_GRID[2])
    assert result.pairs_pruned_subsumption > 0
    assert result.pairs_pruned_monotonicity > 0
    assert result.telemetry.merges_accepted > 0
    run = session.execute(result.plan)
    for query in queries:
        keys = sorted(query)
        assert result_as_dict(run.results[query], keys) == (
            brute_force_group_by(table, keys)
        ), keys


def test_mixed_overlapping_workload():
    table = random_table(seed=3)
    session = Session.for_table(table, statistics="exact")
    queries = [
        frozenset(["c0"]),
        frozenset(["c0", "c1"]),
        frozenset(["c0", "c1", "c2"]),
        frozenset(["c3"]),
        frozenset(["c_corr", "c0"]),
    ]
    result = session.optimize(queries)
    plan_run = session.execute(result.plan)
    naive_run = session.run_naive(queries)
    assert_same_results(session, plan_run, naive_run, queries)


def test_with_indexes_and_adaptation():
    table = random_table(seed=4)
    session = Session.for_table(table, statistics="exact")
    queries = single_column_queries(table.column_names)
    before = session.optimize(queries)
    session.create_index(("c0",))
    session.create_index(("c_txt",))
    after = session.optimize(queries)
    assert after.cost <= before.cost  # indexes can only help
    plan_run = session.execute(after.plan)
    naive_run = session.run_naive(queries)
    assert_same_results(session, plan_run, naive_run, queries)
    assert plan_run.metrics.index_scans >= 1


def test_depth_first_and_storage_schedules_agree():
    table = random_table(seed=5)
    session = Session.for_table(table, statistics="exact")
    queries = single_column_queries(table.column_names)
    result = session.optimize(queries)
    storage_run = session.execute(result.plan, schedule="storage")
    df_run = session.execute(result.plan, schedule="depth_first")
    assert_same_results(session, storage_run, df_run, queries)


def test_storage_constrained_plan_respects_cap():
    table = random_table(seed=6)
    session = Session.for_table(table, statistics="exact")
    queries = single_column_queries(table.column_names)
    unconstrained = session.optimize(queries)
    baseline_peak = session.execute(unconstrained.plan).peak_temp_bytes
    if baseline_peak == 0:
        pytest.skip("optimizer chose the naive plan; nothing to constrain")
    cap = baseline_peak / 2
    constrained = session.optimize(
        queries, OptimizerOptions(max_storage_bytes=cap)
    )
    run = session.execute(constrained.plan)
    assert run.peak_temp_bytes <= cap * 1.25  # estimate-vs-actual slack
    naive_run = session.run_naive(queries)
    assert_same_results(session, run, naive_run, queries)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 10_000),
    query_seed=st.integers(0, 10_000),
    n_queries=st.integers(2, 8),
)
def test_random_workloads_property(seed, query_seed, n_queries):
    """Property: arbitrary query sets on arbitrary tables — the
    optimized plan's results always equal the naive plan's."""
    table = random_table(seed=seed, n_rows=400)
    rng = np.random.default_rng(query_seed)
    columns = list(table.column_names)
    queries = []
    for _ in range(n_queries):
        k = int(rng.integers(1, 4))
        chosen = rng.choice(len(columns), size=k, replace=False)
        queries.append(frozenset(columns[i] for i in chosen))
    session = Session.for_table(table, statistics="exact")
    result = session.optimize(queries)
    result.plan.validate()
    plan_run = session.execute(result.plan)
    naive_run = session.run_naive(queries)
    assert_same_results(session, plan_run, naive_run, queries)
