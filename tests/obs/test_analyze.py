"""EXPLAIN ANALYZE over the sales workload, and trace-neutrality.

The load-bearing guarantee: instrumentation is read-only.  Optimizing
and executing with a recording tracer must give bit-identical plans,
results, and deterministic ``work`` counters to the untraced run.
"""

import math

import pytest

from repro.api import Session
from repro.core.explain import q_error
from repro.obs import MetricsRegistry, Tracer
from repro.workloads.queries import single_column_queries, two_column_queries
from repro.workloads.sales import SALES_COLUMNS, make_sales

ROWS = 4_000


@pytest.fixture(scope="module")
def session():
    table = make_sales(ROWS)
    table.build_dictionaries()
    return Session.for_table(table, statistics="exact")


@pytest.fixture(scope="module")
def queries():
    return single_column_queries(SALES_COLUMNS)


@pytest.fixture(scope="module")
def plan(session, queries):
    return session.optimize(queries).plan


@pytest.fixture(scope="module")
def analysis(session, plan):
    return session.explain_analyze(plan)


class TestQError:
    def test_exact_is_one(self):
        assert q_error(10.0, 10.0) == 1.0

    def test_symmetric(self):
        assert q_error(5.0, 10.0) == q_error(10.0, 5.0) == 2.0

    def test_zero_actual_is_finite(self):
        assert math.isfinite(q_error(5.0, 0.0))


class TestPlanAnalysis:
    def test_covers_every_plan_node(self, analysis, plan):
        assert len(analysis.nodes) == sum(
            1 for _ in plan.iter_subplans()
        )

    def test_every_node_actually_ran(self, analysis):
        for node in analysis.nodes:
            assert node.actual_rows > 0, node.label
            assert node.actual_bytes > 0, node.label
            assert node.actual_seconds >= 0.0

    def test_estimates_come_from_the_cost_model(self, analysis, session, plan):
        coster = session.coster()
        by_label = {node.label: node for node in analysis.nodes}

        def walk(subplan, parent):
            node = by_label[subplan.node.describe()]
            expected = coster.edge_cost(
                parent.node if parent is not None else None,
                subplan.node,
                subplan.is_materialized,
            )
            assert node.est_cost == pytest.approx(expected)
            assert node.est_rows == pytest.approx(
                session.estimator.rows(subplan.node.columns)
            )
            for child in subplan.children:
                walk(child, subplan)

        for subplan in plan.subplans:
            walk(subplan, None)

    def test_q_errors_finite_and_exact_stats_are_tight(self, analysis):
        for node in analysis.nodes:
            assert math.isfinite(node.q_error)
            assert node.q_error >= 1.0
        # With exact statistics the single-column estimates are exact.
        assert analysis.max_q_error == pytest.approx(1.0)

    def test_totals_match_plain_execute(self, session, plan, analysis):
        plain = session.execute(plan)
        assert analysis.execution.metrics.work == plain.metrics.work
        assert analysis.base_rows == ROWS
        assert analysis.total_cost == pytest.approx(
            session.coster().plan_cost(plan)
        )

    def test_render_and_as_dict(self, analysis):
        text = analysis.render()
        assert "EXPLAIN ANALYZE" in text
        assert "q-error" in text
        assert "totals:" in text
        payload = analysis.as_dict()
        assert payload["base_rows"] == ROWS
        assert len(payload["nodes"]) == len(analysis.nodes)
        assert all("q_error" in node for node in payload["nodes"])


class TestAnalyzedPlanIsThePhysicalPlan:
    def test_budget_reaches_the_analyzed_run(self, session, plan):
        """Regression: explain_analyze took no memory budget, so the
        CLI analyzed one lowering and printed another."""
        from repro.physical.plan import Reaggregate, SortGroupBy

        analysis = session.explain_analyze(plan, memory_budget_bytes=2_000)
        physical = analysis.physical
        assert physical.memory_budget_bytes == 2_000
        assert any(op.partitions > 1 for op in physical.grouping_ops())
        by_label = {
            pipeline.label: [
                physical.op(op_id)
                for op_id in pipeline.ops
                if physical.op(op_id) in physical.grouping_ops()
            ]
            for pipeline in physical.compute_pipelines()
        }
        for node in analysis.nodes:
            [op] = by_label[node.label]
            assert node.operator == op.op_name
            if isinstance(op, Reaggregate):
                assert node.regime == op.strategy
            else:
                expected = "sort" if isinstance(op, SortGroupBy) else "hash"
                assert node.regime == expected
        # Same answers as the unbudgeted run.
        plain = session.execute(plan)
        for query, table in plain.results.items():
            assert analysis.execution.results[query].to_rows() == table.to_rows()

    def test_plain_explain_has_estimates_only(self, session, plan, analysis):
        explanation = session.explain(plan)
        assert explanation.execution is None and explanation.physical is None
        for static, analyzed in zip(explanation.nodes, analysis.nodes):
            assert static.actual_rows is None and static.q_error is None
            assert static.label == analyzed.label
            assert static.est_rows == analyzed.est_rows
            assert static.est_cost == analyzed.est_cost


class TestTracingIsReadOnly:
    def test_each_cost_model_call_is_counted_once(self):
        """One uncached costing = one event: the result, its telemetry,
        the coster and the registry all report the same number, and
        neither recorder changes what is computed."""

        def run(tracer, registry):
            table = make_sales(1_500)
            table.build_dictionaries()
            session = Session.for_table(
                table, statistics="exact", tracer=tracer, metrics=registry
            )
            result = session.optimize(two_column_queries(SALES_COLUMNS[:6]))
            execution = session.execute(result.plan)
            return session, result, execution

        registry = MetricsRegistry()
        tracer = Tracer()
        session, result, execution = run(tracer, registry)
        assert result.optimizer_calls > 0
        assert (
            result.optimizer_calls
            == result.telemetry.cost_model_calls
            == session.coster().optimizer_calls
            == registry.value("repro_costmodel_calls_total")
        )
        assert tracer.spans  # timing, and nothing but timing

        _, plain_result, plain_execution = run(None, None)
        assert plain_result.plan == result.plan
        assert plain_result.optimizer_calls == result.optimizer_calls
        assert plain_execution.metrics.work == execution.metrics.work
        assert set(plain_execution.results) == set(execution.results)
        for query, table in plain_execution.results.items():
            assert execution.results[query].to_rows() == table.to_rows()

    def test_traced_run_is_bit_identical(self, queries):
        def run(tracer):
            table = make_sales(ROWS)
            table.build_dictionaries()
            session = Session.for_table(
                table, statistics="exact", tracer=tracer
            )
            result = session.optimize(queries)
            execution = session.execute(result.plan)
            return result, execution

        untraced_result, untraced_execution = run(None)
        traced_result, traced_execution = run(Tracer())

        assert traced_result.plan == untraced_result.plan
        assert traced_result.cost == untraced_result.cost
        assert traced_result.optimizer_calls == untraced_result.optimizer_calls
        assert (
            traced_execution.metrics.as_dict(per_query=True)
            == untraced_execution.metrics.as_dict(per_query=True)
        )
        for query in queries:
            assert (
                traced_execution.results[query].to_rows()
                == untraced_execution.results[query].to_rows()
            )

    def test_explain_analyze_leaves_session_tracer_untouched(
        self, session, plan
    ):
        # explain_analyze uses a private tracer; the session default
        # (the shared no-op tracer) must not accumulate anything.
        before = len(session.tracer.spans)
        session.explain_analyze(plan)
        assert len(session.tracer.spans) == before
