"""Unit tests for the public Session facade."""

import pytest

from repro.api import RunOutcome, Session
from repro.core.optimizer import OptimizerOptions
from repro.costmodel.cardinality import CardinalityCostModel
from repro.costmodel.engine_model import EngineCostModel
from repro.engine.types import SchemaError
from repro.workloads.queries import single_column_queries


@pytest.fixture
def queries(random_table):
    return single_column_queries(random_table.column_names)


class TestConstruction:
    def test_for_table_exact(self, random_table):
        session = Session.for_table(random_table, statistics="exact")
        assert session.base_table == "r"
        assert session.catalog.get("r") is random_table

    def test_for_table_sampled(self, random_table):
        session = Session.for_table(random_table, statistics="sampled")
        assert session.estimator.base_rows == random_table.num_rows

    def test_unknown_statistics(self, random_table):
        with pytest.raises(ValueError):
            Session.for_table(random_table, statistics="vibes")

    def test_unknown_cost_model(self, random_table):
        session = Session.for_table(random_table, cost_model="tarot")
        with pytest.raises(ValueError):
            session.coster()

    def test_cost_model_selection(self, random_table):
        engine = Session.for_table(random_table, cost_model="engine")
        assert isinstance(engine.coster().model, EngineCostModel)
        cardinality = Session.for_table(
            random_table, cost_model="cardinality"
        )
        assert isinstance(cardinality.coster().model, CardinalityCostModel)


class TestCosterLifecycle:
    def test_coster_cached(self, session):
        assert session.coster() is session.coster()

    def test_create_index_invalidates(self, session):
        before = session.coster()
        session.create_index(("low",))
        assert session.coster() is not before

    def test_explicit_invalidation(self, session):
        before = session.coster()
        session.invalidate_coster()
        assert session.coster() is not before

    def test_one_cost_model_instance(self, session, queries):
        model = session.cost_model()
        assert type(model) is EngineCostModel
        session.optimize(queries)
        assert session.coster().model is model
        session.invalidate_coster()
        assert session.cost_model() is model
        session.create_index(("low",))
        session.optimize(queries)
        assert session.coster().model is model
        session.reset_cost_model()
        assert session.cost_model() is not model


class TestRun:
    def test_run_returns_both(self, session, queries):
        outcome = session.run(queries)
        assert isinstance(outcome, RunOutcome)
        outcome.optimization.plan.validate()
        assert len(outcome.execution.results) == len(queries)

    def test_run_with_options(self, session, queries):
        outcome = session.run(
            queries, OptimizerOptions(binary_tree_only=True)
        )
        for subplan in outcome.optimization.plan.iter_subplans():
            assert len(subplan.children) in (0, 2)

    def test_unknown_schedule(self, session, queries):
        """A schedule that is not the plan's is rejected in every mode,
        not run as far as it goes."""
        from repro.core.plan import naive_plan
        from repro.core.scheduling import depth_first_schedule
        from repro.engine.executor import ExecutionError, PlanExecutor

        result = session.optimize(queries)
        other = depth_first_schedule(naive_plan("r", queries[:1]))
        for mode in ("serial", "wavefront"):
            executor = PlanExecutor(
                session.catalog, "r", parallelism=2, mode=mode
            )
            with pytest.raises(ExecutionError, match="no compute step"):
                executor.execute(result.plan, other)
            assert session.catalog.temp_names() == ()

    @pytest.mark.parametrize("statistics", ["exact", "sampled"])
    def test_unknown_query_column_names_the_base_table(
        self, random_table, statistics
    ):
        """The sampler's private ``r__sample`` table must not leak into
        the error, and nothing is costed before the check."""
        session = Session.for_table(random_table, statistics=statistics)
        with pytest.raises(SchemaError) as error:
            session.optimize([frozenset({"mid"}), frozenset({"nope", "low"})])
        assert str(error.value) == (
            "table 'r' has no column 'nope' (query (low,nope))"
        )
        assert session.coster().optimizer_calls == 0

    def test_naive_answers_everything(self, session, queries):
        run = session.run_naive(queries)
        assert set(run.results) == set(queries)


class TestPlanCache:
    def test_disabled_by_default(self, session, queries):
        session.optimize(queries)
        session.optimize(queries)
        assert session.plan_cache_hits == 0

    def test_hit_on_repeat(self, random_table, queries):
        session = Session.for_table(random_table, statistics="exact")
        session.enable_plan_cache = True
        first = session.optimize(queries)
        second = session.optimize(queries)
        assert session.plan_cache_hits == 1
        assert second is first

    def test_options_part_of_key(self, random_table, queries):
        session = Session.for_table(random_table, statistics="exact")
        session.enable_plan_cache = True
        session.optimize(queries)
        session.optimize(queries, OptimizerOptions(binary_tree_only=True))
        assert session.plan_cache_hits == 0

    def test_physical_design_invalidates(self, random_table, queries):
        session = Session.for_table(random_table, statistics="exact")
        session.enable_plan_cache = True
        session.optimize(queries)
        session.create_index(("low",))
        session.optimize(queries)
        assert session.plan_cache_hits == 0


class TestPerStepAttribution:
    def test_per_query_bytes_populated(self, session, queries):
        result = session.optimize(queries)
        run = session.execute(result.plan)
        attributed = run.metrics.per_query_bytes
        assert attributed
        assert sum(attributed.values()) == run.metrics.work


class TestLifecycle:
    def test_context_manager_closes_resources(self, random_table):
        with Session.for_table(
            random_table, statistics="exact", cache=True
        ) as session:
            queries = single_column_queries(random_table.column_names[:2])
            session.execute(session.optimize(queries).plan)
            assert session.cache_stats()["entries"] > 0
        assert session.cache_stats()["entries"] == 0

    def test_close_drops_plan_cache_and_dictionaries(self, random_table):
        session = Session.for_table(random_table, statistics="exact")
        session.enable_plan_cache = True
        random_table.build_dictionaries()
        queries = single_column_queries(random_table.column_names[:2])
        session.optimize(queries)
        assert session._plan_cache
        column = random_table.column_names[0]
        assert random_table.cached_dictionary(column) is not None
        session.close()
        assert not session._plan_cache
        assert random_table.cached_dictionary(column) is None

    def test_session_usable_after_close(self, random_table):
        session = Session.for_table(
            random_table, statistics="exact", cache=True
        )
        queries = single_column_queries(random_table.column_names[:1])
        session.close()
        outcome = session.execute(session.optimize(queries).plan)
        assert outcome.results
        assert session.cache_stats()["entries"] == 1


@pytest.fixture(scope="module")
def sales_40k():
    from repro.workloads.sales import SALES_COLUMNS, make_sales

    table = make_sales(40_000, seed=3)
    table.build_dictionaries()
    return table, single_column_queries(SALES_COLUMNS)


class TestWorkersByDefault:
    """``parallelism`` defaults to the usable CPUs; ``auto`` runs the
    waves unless a memory budget asks for serial."""

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        import os

        from repro.engine import morsel

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
        )
        assert morsel.usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert morsel.usable_cpus() == 1

    @pytest.mark.parametrize(
        "cpus, modes", [(1, {"wavefront"}), (2, {"wavefront"})]
    )
    def test_default_follows_usable_cpus(
        self, monkeypatch, sales_40k, cpus, modes
    ):
        from repro.engine import executor
        from repro.obs.tracer import Tracer

        monkeypatch.setattr(executor, "usable_cpus", lambda: cpus)
        table, queries = sales_40k
        session = Session.for_table(table, statistics="exact")
        tracer = Tracer()
        result = session.execute(session.optimize(queries).plan, tracer=tracer)
        assert result.metrics.mode in modes
        (plan_span,) = [s for s in tracer.spans if s.name == "execute.plan"]
        assert plan_span.attributes["parallelism"] == cpus
        assert plan_span.attributes["mode_reason"]
        assert plan_span.attributes["mode_reason"] == (
            result.physical.mode_reason
        )

    def test_one_cost_model_per_execute(self, sales_40k, monkeypatch):
        """How the plan runs is decided where it is lowered, on the
        lowering's own model: one ``EngineCostModel`` per run."""
        table, queries = sales_40k
        session = Session.for_table(table, statistics="exact")
        plan = session.optimize(queries).plan
        built = []
        init = EngineCostModel.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(EngineCostModel, "__init__", counting)
        result = session.execute(plan, parallelism=2)
        assert result.metrics.mode == "wavefront"
        assert len(built) == 1

    def test_memory_budget_runs_serial(self, sales_40k):
        table, queries = sales_40k
        session = Session.for_table(table, statistics="exact")
        plan = session.optimize(queries).plan
        assert session.execute(plan, parallelism=2).metrics.mode != "serial"
        budgeted = session.execute(
            plan, parallelism=2, memory_budget_bytes=1e9
        )
        assert budgeted.metrics.mode == "serial"
        forced = session.execute(
            plan, parallelism=2, memory_budget_bytes=1e9, mode="morsel"
        )
        assert forced.metrics.mode == "morsel"

    def test_requested_schedule_survives_workers(self):
        """Every run lowers the Section 4.4.1 storage order: a serial
        run keeps it, and the pipelines of ``auto``'s waves on two
        workers follow it too.  An executor without the session lowers
        depth-first."""
        from repro.engine.executor import PlanExecutor
        from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem

        session = Session.for_table(
            make_lineitem(20_000, seed=0), statistics="exact"
        )
        plan = session.optimize(single_column_queries(LINEITEM_SC_COLUMNS)).plan

        def order(physical):
            return [op.describe() for op in physical.iter_ops()]

        serial = session.lower(plan, parallelism=1, mode="serial")
        assert serial.mode == "serial"
        storage = order(serial)
        auto = session.lower(plan, parallelism=2)
        assert auto.mode == "wavefront"
        assert order(auto) == storage
        budgeted = session.lower(plan, parallelism=2, memory_budget_bytes=1e9)
        assert budgeted.mode == "serial"
        assert order(budgeted) == storage
        depth_first = PlanExecutor(
            session.catalog,
            session.base_table,
            estimator=session.estimator,
            parallelism=1,
        ).lower(plan)
        assert order(depth_first) != storage
