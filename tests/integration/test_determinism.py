"""Determinism: same inputs, same outputs, everywhere.

A reproduction package lives or dies by this — reruns of every layer
(generators, statistics, optimizer, executor) must agree bit-for-bit
given the same seeds.
"""

from repro.api import Session
from repro.workloads.queries import single_column_queries
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem


def build(seed=42, rows=20_000, statistics="sampled"):
    table = make_lineitem(rows, seed=seed)
    table.build_dictionaries()
    session = Session.for_table(table, statistics=statistics, seed=0)
    queries = single_column_queries(LINEITEM_SC_COLUMNS)
    return session, queries


class TestGeneratorDeterminism:
    def test_same_seed_same_table(self):
        t1 = make_lineitem(5_000, seed=9)
        t2 = make_lineitem(5_000, seed=9)
        for column in t1.column_names:
            assert list(t1[column]) == list(t2[column])

    def test_different_seed_differs(self):
        t1 = make_lineitem(5_000, seed=9)
        t2 = make_lineitem(5_000, seed=10)
        assert list(t1["l_orderkey"]) != list(t2["l_orderkey"])


class TestPlannerDeterminism:
    def test_same_plan_across_sessions(self):
        session1, queries = build()
        session2, _ = build()
        plan1 = session1.optimize(queries).plan
        plan2 = session2.optimize(queries).plan
        assert plan1 == plan2

    def test_same_plan_within_session(self):
        session, queries = build()
        first = session.optimize(queries)
        second = session.optimize(queries)
        assert first.plan == second.plan
        assert first.cost == second.cost

    def test_exact_statistics_also_deterministic(self):
        session1, queries = build(statistics="exact")
        session2, _ = build(statistics="exact")
        assert (
            session1.optimize(queries).plan == session2.optimize(queries).plan
        )


class TestExecutionDeterminism:
    def test_results_and_work_identical(self):
        session, queries = build(rows=8_000)
        result = session.optimize(queries)
        run1 = session.execute(result.plan)
        run2 = session.execute(result.plan)
        assert run1.metrics.work == run2.metrics.work
        assert run1.peak_temp_bytes == run2.peak_temp_bytes
        for query in queries:
            assert run1.results[query].to_rows() == run2.results[query].to_rows()
