"""Search telemetry: counters consistent with the optimizer's result."""

import pytest

from repro.obs import SearchTelemetry, Tracer
from repro.workloads.queries import single_column_queries
from repro.workloads.sales import SALES_COLUMNS, make_sales


@pytest.fixture(scope="module")
def session():
    from repro.api import Session

    table = make_sales(4_000)
    table.build_dictionaries()
    return Session.for_table(table, statistics="exact")


@pytest.fixture(scope="module")
def result(session):
    queries = single_column_queries(SALES_COLUMNS)
    return session.optimize(queries)


class TestUnit:
    def test_summary_mentions_key_counts(self):
        telemetry = SearchTelemetry(
            merges_accepted=3,
            candidates_considered=40,
            cost_model_calls=99,
            candidates_rejected_cost=10,
            pairs_pruned_subsumption=5,
            best_cost_trajectory=[100.0, 80.0],
        )
        text = telemetry.summary()
        assert "3 merges accepted / 40 candidates" in text
        assert "99 cost-model calls" in text
        assert "5 pairs pruned" in text
        assert "100 -> 80" in text

    def test_rung_counts_are_reported(self):
        telemetry = SearchTelemetry(
            pairs_refused_by_bound=70,
            pairs_refused_at_root=60,
            full_floors_computed=15,
        )
        text = telemetry.summary()
        assert "70 pairs refused by bound (60 at the root edge)" in text
        assert "15 full floors" in text
        snapshot = telemetry.as_dict()
        assert snapshot["pairs_refused_at_root"] == 60
        assert snapshot["full_floors_computed"] == 15
        assert set(snapshot) == set(vars(telemetry))

    def test_initial_and_final_cost(self):
        telemetry = SearchTelemetry(best_cost_trajectory=[10.0, 7.0, 6.0])
        assert telemetry.initial_cost == 10.0
        assert telemetry.final_cost == 6.0

    def test_as_dict_copies_trajectory(self):
        telemetry = SearchTelemetry(best_cost_trajectory=[1.0])
        snapshot = telemetry.as_dict()
        snapshot["best_cost_trajectory"].append(0.0)
        assert telemetry.best_cost_trajectory == [1.0]


class TestAgainstOptimizer:
    def test_result_carries_telemetry(self, result):
        assert result.telemetry is not None

    def test_counters_match_result_fields(self, result):
        telemetry = result.telemetry
        assert telemetry.cost_model_calls == result.optimizer_calls
        assert (
            telemetry.pairs_pruned_subsumption
            == result.pairs_pruned_subsumption
        )
        assert (
            telemetry.pairs_pruned_monotonicity
            == result.pairs_pruned_monotonicity
        )
        # Every iteration except the final no-improvement one accepts
        # a merge (the hill climb stops when nothing improves).
        assert telemetry.merges_accepted == result.iterations - 1

    def test_trajectory_matches_costs(self, result):
        trajectory = result.telemetry.best_cost_trajectory
        assert trajectory[0] == pytest.approx(result.naive_cost)
        assert trajectory[-1] == pytest.approx(result.cost)
        assert len(trajectory) == result.telemetry.merges_accepted + 1
        # The hill climb only ever applies improving merges.
        assert all(
            later < earlier
            for earlier, later in zip(trajectory, trajectory[1:])
        )

    def test_candidate_accounting(self, result):
        telemetry = result.telemetry
        assert telemetry.candidates_considered >= telemetry.merges_accepted
        assert (
            telemetry.candidates_rejected_cost
            <= telemetry.candidates_considered
        )
        assert telemetry.pair_evaluations <= telemetry.pairs_considered
        assert (
            telemetry.pairs_refused_at_root <= telemetry.pairs_refused_by_bound
        )
        assert telemetry.pair_evaluations <= telemetry.full_floors_computed

    def test_tracer_spans_cover_iterations(self, session):
        queries = single_column_queries(SALES_COLUMNS)
        tracer = Tracer()
        optimizer_session = type(session).for_table(
            session.catalog.get(session.base_table),
            statistics="exact",
            tracer=tracer,
        )
        result = optimizer_session.optimize(queries)
        [root] = tracer.root_spans()
        assert root.name == "optimize"
        iteration_spans = [
            span for span in tracer.spans if span.name == "optimize.iteration"
        ]
        assert len(iteration_spans) == result.iterations
        accepted = [
            span
            for span in iteration_spans
            if span.attributes.get("accepted")
        ]
        assert len(accepted) == result.telemetry.merges_accepted
