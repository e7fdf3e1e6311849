"""Unit, property and differential tests for per-query aggregates
(Section 7.2), which run through ``Session.execute``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core.extensions import AggregateQuery, aggregates_by_columns
from repro.core.plan import LogicalPlan, NodeKind, PlanNode, SubPlan, naive_plan
from repro.engine.aggregation import AggregateSpec, canonical_alias, state_specs
from repro.engine.executor import ExecutionError
from repro.engine.table import Table
from repro.engine.types import INT_NULL
from repro.physical.plan import CacheRead
from repro.workloads.queries import two_column_queries
from repro.workloads.sales import make_sales
from tests.conftest import brute_force_group_by, result_as_dict


def fs(*cols):
    return frozenset(cols)


def q(cols, *specs):
    return AggregateQuery(fs(*cols), tuple(specs))


@pytest.fixture
def session(random_table):
    return Session.for_table(random_table, statistics="exact")


def reference(table, keys, func, column):
    return brute_force_group_by(table, keys, func, column)


def run_per_query(session, plan, queries, **knobs):
    return session.execute(
        plan, aggregates=aggregates_by_columns(queries), **knobs
    )


class TestPrepare:
    def test_canonical_alias(self):
        assert canonical_alias("count", None) == "cnt"
        assert canonical_alias("sum", "x") == "sum_x"

    def test_shared_identity(self):
        specs = aggregates_by_columns(
            [
                q(["a"], AggregateSpec("sum", "x", "total")),
                q(["a"], AggregateSpec("sum", "x", "other_name")),
            ]
        )[fs("a")]
        assert len(specs) == 2
        assert len(state_specs(specs)) == 1

    def test_avg_decomposed(self):
        states = state_specs([AggregateSpec("avg", "x", "mean_x")])
        identities = {(state.func, state.column) for state in states}
        assert identities == {("sum", "x"), ("count_col", "x")}


class TestExecution:
    def test_mixed_aggregates_match_brute_force(self, session, random_table):
        queries = [
            q(["low"], AggregateSpec.count_star(), AggregateSpec("sum", "high", "s")),
            q(["mid"], AggregateSpec("min", "high", "lo"), AggregateSpec("max", "high", "hi")),
            q(["low", "mid"], AggregateSpec.count_star()),
        ]
        optimization, run = session.run_with_aggregates(queries)
        optimization.plan.validate()

        low = run.results[fs("low")]
        assert result_as_dict(low, ["low"], "cnt") == reference(
            random_table, ["low"], "count", None
        )
        assert result_as_dict(low, ["low"], "s") == reference(
            random_table, ["low"], "sum", "high"
        )
        mid = run.results[fs("mid")]
        assert result_as_dict(mid, ["mid"], "lo") == reference(
            random_table, ["mid"], "min", "high"
        )
        assert result_as_dict(mid, ["mid"], "hi") == reference(
            random_table, ["mid"], "max", "high"
        )

    def test_avg_recombined_exactly(self, session, random_table):
        queries = [q(["low"], AggregateSpec("avg", "high", "mean_high"))]
        _, run = session.run_with_aggregates(queries)
        got = result_as_dict(run.results[fs("low")], ["low"], "mean_high")
        expected = reference(random_table, ["low"], "avg", "high")
        for key, value in expected.items():
            assert got[key] == pytest.approx(value)

    def test_results_via_merged_plan_match_naive_plan(self, session):
        """Same aggregates through a merged tree and the naive plan."""
        queries = [
            q(["low"], AggregateSpec("sum", "high", "s")),
            q(["mid"], AggregateSpec("sum", "high", "s")),
        ]
        merged_root = SubPlan(
            PlanNode(fs("low", "mid")),
            (SubPlan.leaf(fs("low")), SubPlan.leaf(fs("mid"))),
        )
        merged = LogicalPlan("r", (merged_root,), frozenset([fs("low"), fs("mid")]))
        naive = naive_plan("r", [fs("low"), fs("mid")])
        run_merged = run_per_query(session, merged, queries)
        run_naive = run_per_query(session, naive, queries)
        for columns in (fs("low"), fs("mid")):
            assert sorted(run_merged.results[columns].to_rows()) == sorted(
                run_naive.results[columns].to_rows()
            )

    def test_required_intermediate_with_aggregates(self, session, random_table):
        root = SubPlan(
            PlanNode(fs("low", "mid")), (SubPlan.leaf(fs("low")),), required=True
        )
        plan = LogicalPlan(
            "r", (root,), frozenset([fs("low"), fs("low", "mid")])
        )
        queries = [
            q(["low", "mid"], AggregateSpec("max", "high", "m")),
            q(["low"], AggregateSpec.count_star()),
        ]
        run = run_per_query(session, plan, queries)
        got = result_as_dict(
            run.results[fs("low", "mid")], ["low", "mid"], "m"
        )
        assert got == reference(random_table, ["low", "mid"], "max", "high")

    def test_plan_must_answer_queries(self, session):
        plan = naive_plan("r", [fs("low")])
        with pytest.raises(ExecutionError, match="differ"):
            run_per_query(
                session, plan, [q(["mid"], AggregateSpec.count_star())]
            )

    def test_cube_nodes_answered(self, session, random_table):
        node = SubPlan(
            PlanNode(fs("low"), NodeKind.CUBE),
            (),
            direct_answers=frozenset([fs("low")]),
        )
        plan = LogicalPlan("r", (node,), frozenset([fs("low")]))
        run = run_per_query(
            session, plan, [q(["low"], AggregateSpec("avg", "high", "m"))]
        )
        got = result_as_dict(run.results[fs("low")], ["low"], "m")
        expected = reference(random_table, ["low"], "avg", "high")
        assert got == pytest.approx(expected)


#: A mixed §7.2 workload: COUNT(*), COUNT(col), SUM, MIN, MAX, AVG and
#: two aliases of one aggregate identity, over columns with and without
#: NULLs.
MIXED = [
    q(
        ["low"],
        AggregateSpec.count_star("n"),
        AggregateSpec("sum", "high", "s"),
        AggregateSpec("avg", "high", "mean"),
        AggregateSpec("sum", "nullable", "s_null"),
        AggregateSpec("avg", "nullable", "mean_null"),
        AggregateSpec("count_col", "nullable", "n_null"),
    ),
    q(
        ["mid"],
        AggregateSpec("min", "high", "lo"),
        AggregateSpec("max", "high", "hi"),
        AggregateSpec("count_col", "shadow", "nn"),
        AggregateSpec("min", "nullable", "lo_null"),
        AggregateSpec("max", "nullable", "hi_null"),
    ),
    q(
        ["low", "mid"],
        AggregateSpec("sum", "high", "total"),
        AggregateSpec("sum", "high", "total_again"),
    ),
    q(["mid", "txt"], AggregateSpec("avg", "shadow", "avg_shadow")),
]

def mixed_plan(kind):
    queries = [query.columns for query in MIXED]
    if kind == "naive":
        return naive_plan("r", queries)
    if kind == "merged":
        low_mid = SubPlan(
            PlanNode(fs("low", "mid")),
            (SubPlan.leaf(fs("low")), SubPlan.leaf(fs("mid"))),
            required=True,
        )
        root = SubPlan(
            PlanNode(fs("low", "mid", "txt")),
            (low_mid, SubPlan.leaf(fs("mid", "txt"))),
        )
        return LogicalPlan("r", (root,), frozenset(queries))
    cube = SubPlan(
        PlanNode(fs("low", "mid"), NodeKind.CUBE),
        (),
        direct_answers=frozenset([fs("low"), fs("mid"), fs("low", "mid")]),
    )
    return LogicalPlan(
        "r", (cube, SubPlan.leaf(fs("mid", "txt"))), frozenset(queries)
    )


_MIXED_EXPECTED: dict = {}


@pytest.fixture
def nullable_table(random_table):
    """``random_table`` plus ``nullable``: ``high`` with NULL on every
    third row and wherever ``low`` is 0, so some groups hold no
    non-NULL value."""
    nullable = random_table["high"].copy()
    rows = np.arange(random_table.num_rows)
    nullable[(rows % 3 == 0) | (random_table["low"] == 0)] = INT_NULL
    columns = {name: random_table[name] for name in random_table.column_names}
    return Table("r", {**columns, "nullable": nullable})


@pytest.fixture
def mixed_expected(nullable_table):
    """query columns -> {alias: brute-force result} for :data:`MIXED`
    (computed once: ``nullable_table`` is seeded)."""
    if not _MIXED_EXPECTED:
        for query in MIXED:
            keys = sorted(query.columns)
            _MIXED_EXPECTED[query.columns] = {
                spec.alias: reference(
                    nullable_table, keys, spec.func, spec.column
                )
                for spec in query.aggregates
            }
    return _MIXED_EXPECTED


def assert_mixed_results(run, expected):
    assert set(run.results) == set(expected)
    for query in MIXED:
        keys = sorted(query.columns)
        table = run.results[query.columns]
        assert list(table.column_names) == keys + [
            s.alias for s in query.aggregates
        ]
        for alias, want in expected[query.columns].items():
            assert result_as_dict(table, keys, alias) == pytest.approx(
                want, nan_ok=True
            )


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("mode", ["serial", "wavefront", "morsel"])
@pytest.mark.parametrize("kind", ["merged", "naive", "cube"])
def test_mixed_workload_differential(
    nullable_table, mixed_expected, kind, mode, parallelism, cache
):
    """Every plan shape, mode and worker count returns the brute-force
    answer; with the cache on, a cold run and an exact-hit rerun do."""
    session = Session.for_table(nullable_table, cache=cache)
    plan = mixed_plan(kind)
    plan.validate()
    knobs = dict(mode=mode, parallelism=parallelism)
    cold = run_per_query(session, plan, MIXED, **knobs)
    assert cold.metrics.mode == mode
    assert_mixed_results(cold, mixed_expected)
    if not cache:
        return
    warm = run_per_query(session, plan, MIXED, **knobs)
    assert warm.metrics.mode == mode
    assert any(
        isinstance(op, CacheRead) and not op.derived
        for op in warm.physical.operators
    )
    assert session.cache_stats()["hits"] > 0
    assert_mixed_results(warm, mixed_expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_multi_aggregate_property(seed):
    """Property: optimized multi-aggregate runs equal brute force."""
    rng = np.random.default_rng(seed)
    n = 400
    table = Table(
        "t",
        {
            "g1": rng.integers(0, 8, n),
            "g2": rng.integers(0, 15, n),
            "v": rng.integers(-50, 50, n),
        },
    )
    session = Session.for_table(table, statistics="exact")
    queries = [
        q(["g1"], AggregateSpec.count_star(), AggregateSpec("sum", "v", "sv")),
        q(["g2"], AggregateSpec("min", "v", "mn")),
        q(["g1", "g2"], AggregateSpec("max", "v", "mx")),
    ]
    _, run = session.run_with_aggregates(queries)
    assert result_as_dict(run.results[fs("g1")], ["g1"], "sv") == reference(
        table, ["g1"], "sum", "v"
    )
    assert result_as_dict(run.results[fs("g2")], ["g2"], "mn") == reference(
        table, ["g2"], "min", "v"
    )
    assert result_as_dict(
        run.results[fs("g1", "g2")], ["g1", "g2"], "mx"
    ) == reference(table, ["g1", "g2"], "max", "v")


def test_list_runs_as_the_per_query_mapping():
    """One list is the mapping with the same entry for every query: on a
    merged 12-query plan over 20k sales rows, ``[COUNT(*), AVG(x)]``
    equals its mapping form and the brute-force answer."""
    table = make_sales(20_000)
    session = Session.for_table(table, statistics="exact")
    queries = two_column_queries(
        ["region", "state", "city", "category", "brand", "channel"]
    )[:12]
    plan = session.optimize(queries).plan
    assert any(sub.children for sub in plan.iter_subplans())
    aggregates = [
        AggregateSpec.count_star(),
        AggregateSpec("avg", "quantity", "mean_quantity"),
    ]
    listed = session.execute(plan, aggregates=aggregates)
    mapped = session.execute(
        plan, aggregates={columns: aggregates for columns in queries}
    )
    assert set(listed.results) == set(queries)
    for columns in queries:
        keys = sorted(columns)
        assert listed.results[columns].to_rows() == (
            mapped.results[columns].to_rows()
        )
        for spec in aggregates:
            got = result_as_dict(listed.results[columns], keys, spec.alias)
            want = reference(table, keys, spec.func, spec.column)
            assert got == pytest.approx(want)
