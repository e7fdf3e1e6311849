"""High-level public API: a Session tying the whole system together.

A :class:`Session` owns a catalog with one base relation, a statistics
source, a cost model, and an executor, and exposes the paper's workflow
as three calls: ``optimize`` (run GB-MQO), ``execute`` (run a logical
plan), and ``run`` (both).  Everything underneath is reachable for
advanced use, but the examples and experiments go through this facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.columnset import format_columns
from repro.core.optimizer import (
    GbMqoOptimizer,
    OptimizationResult,
    OptimizerOptions,
)
from repro.core.plan import LogicalPlan, naive_plan
from repro.core.scheduling import Step, storage_minimizing_schedule
from repro.core.storage import estimator_size_fn
from repro.costmodel.base import CostModel, PlanCoster
from repro.costmodel.cardinality import CardinalityCostModel
from repro.costmodel.engine_model import EngineCostModel
from repro.cache import CacheConfig, ResultCache
from repro.core.extensions import (
    AggregateQuery,
    AggregatesByQuery,
    aggregates_by_columns,
    queries_to_column_sets,
)
from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionResult, PlanExecutor
from repro.engine.indexes import IndexSpec
from repro.engine.table import Table
from repro.engine.types import SchemaError
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.stats.cardinality import (
    CardinalityEstimator,
    ExactCardinalityEstimator,
    SampledCardinalityEstimator,
)

# Re-exports that make ``from repro import api`` self-sufficient.
from repro.workloads.queries import (  # noqa: F401
    containment_workload,
    single_column_queries,
    two_column_queries,
)
from repro.workloads.tpch import make_lineitem  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.physical.plan import PhysicalPlan


@dataclass
class RunOutcome:
    """optimize + execute in one call."""

    optimization: OptimizationResult
    execution: ExecutionResult


class Session:
    """One base relation plus everything needed to plan and run on it.

    Args:
        catalog: catalog already holding the base relation.
        base_table: the relation's name.
        estimator: cardinality source for the cost models.
        cost_model: 'engine' (the realistic optimizer model, default) or
            'cardinality' (the analytic Section 3.2.1 model).
        use_indexes: let execution answer queries from covering indexes.
        tracer: span tracer threaded through the optimizer, cost model,
            and executor.  Defaults to the shared no-op tracer, which
            records nothing and adds near-zero overhead.
        metrics: metrics registry threaded through the same layers for
            aggregate counters/histograms (see :mod:`repro.obs.metrics`).
            Defaults to the process-wide registry, which is the no-op
            singleton unless explicitly enabled.
        cache: False (default — bit-identical to a cache-less session),
            True for a semantic result cache with the default
            :class:`~repro.cache.CacheConfig`, or a config for full
            control.  When enabled, finished grouping results are
            admitted into a :class:`~repro.cache.ResultCache` and later
            runs serve exact or lattice-derivable hits through
            zero-scan-cost ``CacheRead`` operators; base-table mutations
            (``catalog.replace_table`` / :meth:`invalidate`) drop
            dependent entries atomically.

    Sessions are context managers: ``with Session.for_table(t) as s:``
    releases held resources (cached results, cached dictionaries) on
    exit via :meth:`close`.

    Concurrency: ``execute()`` may be called from several threads, but
    plan runs on one catalog serialise (see
    :class:`~repro.engine.executor.PlanExecutor`).
    """

    def __init__(
        self,
        catalog: Catalog,
        base_table: str,
        estimator: CardinalityEstimator,
        cost_model: str = "engine",
        use_indexes: bool = True,
        enable_plan_cache: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        cache: bool | CacheConfig = False,
    ) -> None:
        self.catalog = catalog
        self.base_table = base_table
        self.estimator = estimator
        self.cost_model_name = cost_model
        self.use_indexes = use_indexes
        self.tracer = tracer or NOOP_TRACER
        self.metrics = metrics if metrics is not None else get_metrics()
        self._result_cache: ResultCache | None = None
        if cache:
            config = cache if isinstance(cache, CacheConfig) else None
            result_cache = ResultCache(config, metrics=self.metrics)
            self._result_cache = result_cache
            # Version bumps (replace_table, drop, clustered-index
            # builds) atomically drop every dependent cache entry.
            catalog.add_invalidation_hook(
                lambda name, version: result_cache.invalidate(name)
            )
        self._cost_model: CostModel | None = None
        self._coster: PlanCoster | None = None
        #: Plan cache: (queries, options) -> OptimizationResult, keyed
        #: per physical-design version.  Off by default so experiment
        #: timings stay honest; enable for serving workloads.
        self.enable_plan_cache = enable_plan_cache
        self._plan_cache: dict[
            tuple[frozenset[frozenset[str]], OptimizerOptions | None, int],
            OptimizationResult,
        ] = {}
        self._design_version = 0
        self.plan_cache_hits = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def for_table(
        cls,
        table: Table,
        statistics: str = "exact",
        cost_model: str = "engine",
        sample_rows: int = 10_000,
        seed: int = 0,
        use_indexes: bool = True,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        cache: bool | CacheConfig = False,
    ) -> "Session":
        """Build a session around one table.

        Args:
            table: the base relation.
            statistics: 'exact' (oracle) or 'sampled' (the ``hybrid``
                distinct estimator — max(GEE, Chao) — over a sample,
                metered — the realistic mode).
            cost_model: 'engine' or 'cardinality'.
            sample_rows: sample size for sampled statistics.
            seed: sampling seed.
            use_indexes: allow covering-index execution paths.
            tracer: span tracer for the whole session (no-op default).
            metrics: metrics registry for the whole session (defaults
                to the process-wide registry).
            cache: the semantic result cache — off (False, default),
                default config (True), or a
                :class:`~repro.cache.CacheConfig`.
        """
        catalog = Catalog()
        catalog.add_table(table)
        if statistics == "exact":
            estimator: CardinalityEstimator = ExactCardinalityEstimator(table)
        elif statistics == "sampled":
            estimator = SampledCardinalityEstimator(
                table, sample_rows=sample_rows, seed=seed
            )
        else:
            raise ValueError(f"unknown statistics mode {statistics!r}")
        return cls(
            catalog,
            table.name,
            estimator,
            cost_model=cost_model,
            use_indexes=use_indexes,
            tracer=tracer,
            metrics=metrics,
            cache=cache,
        )

    # -- result cache ----------------------------------------------------------

    @property
    def result_cache(self) -> ResultCache | None:
        """The semantic result cache (None when caching is off)."""
        return self._result_cache

    @property
    def cache_enabled(self) -> bool:
        """Whether the semantic result cache is active."""
        return self._result_cache is not None

    def cache_stats(self) -> dict[str, object]:
        """Hit/eviction/byte accounting of the result cache.

        Returns ``{"enabled": False}`` when caching is off; otherwise
        ``enabled: True`` plus every counter from
        :meth:`~repro.cache.ResultCache.stats`.
        """
        if self._result_cache is None:
            return {"enabled": False}
        return {"enabled": True, **self._result_cache.stats()}

    def invalidate(self, table: str | None = None) -> int:
        """Record a mutation of ``table`` (default: the base relation).

        Bumps the catalog's version counter, which atomically drops
        every dependent result-cache entry through the invalidation
        hook; returns the new version.  Callers that mutate table
        contents outside :meth:`~repro.engine.catalog.Catalog.
        replace_table` use this to keep cached results sound.
        """
        return self.catalog.bump_version(table or self.base_table)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release session-held resources.

        Drops every result cache entry, clears the plan cache, and drops
        cached column dictionaries from the catalog's tables.  The
        session stays usable afterwards — the caches simply start cold
        again.
        """
        if self._result_cache is not None:
            self._result_cache.clear()
        self._plan_cache.clear()
        for name in self.catalog.table_names():
            self.catalog.get(name).drop_dictionaries()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- cost model / coster ------------------------------------------------------

    def cost_model(self) -> CostModel:
        """The session's single cost-model instance.

        Built once and reused across every ``optimize()`` / ``coster()``
        call (the coster's *caches* are dropped on invalidation, the
        model is not).
        """
        if self._cost_model is None:
            if self.cost_model_name == "cardinality":
                self._cost_model = CardinalityCostModel(self.estimator)
            elif self.cost_model_name == "engine":
                self._cost_model = EngineCostModel(
                    self.estimator,
                    catalog=self.catalog,
                    base_table=self.base_table,
                    use_indexes=self.use_indexes,
                )
            else:
                raise ValueError(
                    f"unknown cost model {self.cost_model_name!r}"
                )
        return self._cost_model

    def coster(self) -> PlanCoster:
        """The session's plan coster (caches rebuilt after invalidation)."""
        if self._coster is None:
            self._coster = PlanCoster(self.cost_model(), metrics=self.metrics)
        return self._coster

    def invalidate_coster(self) -> None:
        """Drop cached costs and plans (after physical-design changes).

        The cost-model *instance* is kept — only the coster's memoized
        edge/sub-plan costs and the plan cache are dropped.
        """
        self._coster = None
        self._design_version += 1

    def reset_cost_model(self) -> None:
        """Drop the cost-model instance itself (and all cached costs)."""
        self._cost_model = None
        self.invalidate_coster()

    # -- physical design -----------------------------------------------------------

    def create_index(
        self, columns: tuple[str, ...], name: str | None = None, clustered: bool = False
    ) -> None:
        """Create an index on the base relation and refresh costing."""
        index_name = name or ("ix_" + "_".join(columns))
        self.catalog.create_index(
            self.base_table, IndexSpec(index_name, tuple(columns), clustered)
        )
        self.invalidate_coster()

    # -- planning and execution -----------------------------------------------------

    def optimize(
        self,
        queries: list[frozenset[str]],
        options: OptimizerOptions | None = None,
    ) -> OptimizationResult:
        """Run the GB-MQO hill climber on the input queries.

        With :attr:`enable_plan_cache` set, repeated calls for the same
        (query set, options) under an unchanged physical design return
        the previously computed result (its ``optimization_seconds``
        reflects the original run).

        Raises:
            SchemaError: a query names a column the base relation does
                not have.
        """
        base = self.catalog.get(self.base_table)
        for query in queries:
            missing = sorted(c for c in query if c not in base)
            if missing:
                raise SchemaError(
                    f"table {self.base_table!r} has no column "
                    f"{missing[0]!r} (query {format_columns(query)})"
                )
        if self.enable_plan_cache:
            key = (
                frozenset(frozenset(q) for q in queries),
                options,
                self._design_version,
            )
            if key in self._plan_cache:
                self.plan_cache_hits += 1
                return self._plan_cache[key]
            result = GbMqoOptimizer(
                self.coster(), options, tracer=self.tracer,
                metrics=self.metrics,
            ).optimize(self.base_table, queries)
            self._plan_cache[key] = result
            return result
        optimizer = GbMqoOptimizer(
            self.coster(), options, tracer=self.tracer, metrics=self.metrics
        )
        return optimizer.optimize(self.base_table, queries)

    def _executor(
        self,
        aggregates: list[AggregateSpec] | AggregatesByQuery | None,
        tracer: Tracer | None,
        parallelism: int | None,
        memory_budget_bytes: float | None,
        mode: str,
    ) -> PlanExecutor:
        return PlanExecutor(
            self.catalog,
            self.base_table,
            aggregates=aggregates,
            use_indexes=self.use_indexes,
            tracer=tracer or self.tracer,
            parallelism=parallelism,
            estimator=self.estimator,
            memory_budget_bytes=memory_budget_bytes,
            metrics=self.metrics,
            mode=mode,
            result_cache=self._result_cache,
        )

    def execute(
        self,
        plan: LogicalPlan,
        aggregates: list[AggregateSpec] | AggregatesByQuery | None = None,
        tracer: Tracer | None = None,
        parallelism: int | None = None,
        memory_budget_bytes: float | None = None,
        mode: str = "auto",
    ) -> ExecutionResult:
        """Execute a logical plan.

        The plan is lowered to costed physical operators
        (:mod:`repro.physical`) — hash vs sort grouping chosen per node
        from the session's statistics, pipelines in the Section 4.4.1
        storage-minimizing order — verified, and interpreted.

        Args:
            plan: the plan to run.
            aggregates: aggregate list every query computes (COUNT(*)
                by default), or each query's own list by column set as
                :func:`~repro.core.extensions.aggregates_by_columns`
                builds it (Section 7.2).
            tracer: span tracer for this run only (defaults to the
                session tracer).
            parallelism: worker threads for parallel execution; None
                (the default) is every CPU the process may use
                (:func:`~repro.engine.morsel.usable_cpus`), 1 runs every
                wave on the calling thread.  Parallel runs produce
                bit-identical results and equal metrics totals.
            memory_budget_bytes: plan-wide transient-memory budget for
                the lowering; groupings estimated over it are demoted to
                the sort regime and then to partitioned execution.
                Results stay bit-identical.
            mode: execution mode — 'auto' (default), 'serial',
                'wavefront', or 'morsel'.  The lowering resolves 'auto'
                (:func:`~repro.physical.lowering.lower`): serial, in
                the Section 4.4.1 storage order, under a memory budget;
                otherwise wavefront, the plan's depth ranks as waves,
                at every worker count.  'morsel' runs only when
                forced.  The resolved mode is reported on
                ``result.metrics.mode`` and
                ``result.physical.mode_reason`` says why.
        """
        executor = self._executor(
            aggregates, tracer, parallelism, memory_budget_bytes, mode
        )
        return executor.execute(plan, self._storage_order(plan))

    def lower(
        self,
        plan: LogicalPlan,
        aggregates: list[AggregateSpec] | AggregatesByQuery | None = None,
        parallelism: int | None = None,
        memory_budget_bytes: float | None = None,
        mode: str = "auto",
    ) -> "PhysicalPlan":
        """Lower a logical plan to its physical form without running it.

        Same knobs as :meth:`execute`; returns the
        :class:`~repro.physical.plan.PhysicalPlan` that ``execute``
        would interpret (render it with ``.render()``).
        """
        executor = self._executor(
            aggregates, None, parallelism, memory_budget_bytes, mode
        )
        return executor.lower(plan, self._storage_order(plan))

    def _storage_order(self, plan: LogicalPlan) -> list[Step]:
        """The Section 4.4.1 storage-minimizing schedule of ``plan``."""
        return storage_minimizing_schedule(
            plan, estimator_size_fn(self.estimator)
        )

    def run(
        self,
        queries: list[frozenset[str]],
        options: OptimizerOptions | None = None,
    ) -> RunOutcome:
        """Optimize then execute in one call."""
        optimization = self.optimize(queries, options)
        execution = self.execute(optimization.plan)
        return RunOutcome(optimization, execution)

    def run_naive(self, queries: list[frozenset[str]]) -> ExecutionResult:
        """Execute the naive plan (the baseline of every experiment) with
        :meth:`execute`'s defaults, so it runs on the same workers and
        mode choice as an optimized plan."""
        return self.execute(naive_plan(self.base_table, queries))

    def explain(self, plan: LogicalPlan):
        """EXPLAIN a plan: per-node estimates and edge costs.

        Returns:
            A :class:`repro.core.explain.PlanExplanation`; print its
            ``render()`` for the human-readable form.
        """
        from repro.core.explain import explain_plan

        return explain_plan(plan, self.coster(), self.estimator)

    def explain_analyze(
        self,
        plan: LogicalPlan,
        parallelism: int | None = None,
        mode: str = "auto",
        memory_budget_bytes: float | None = None,
    ):
        """EXPLAIN ANALYZE: execute the plan under a private tracer and
        report estimated vs actual rows/bytes/time and q-error per node.

        The explanation's ``physical`` is the plan the run executed
        (``ExecutionResult.physical``), so it is exactly what its
        actuals describe.  Arguments are those of :meth:`execute`.

        Returns:
            A :class:`repro.core.explain.PlanExplanation` carrying
            actuals, the ``execution`` and the ``physical`` plan.
        """
        from repro.core.explain import explain_plan

        tracer = Tracer()
        execution = self.execute(
            plan,
            tracer=tracer,
            parallelism=parallelism,
            memory_budget_bytes=memory_budget_bytes,
            mode=mode,
        )
        return explain_plan(
            plan,
            self.coster(),
            self.estimator,
            execution=execution,
            spans=tracer.spans,
            physical=execution.physical,
        )

    def run_with_aggregates(
        self,
        queries: list[AggregateQuery],
        options: OptimizerOptions | None = None,
    ) -> tuple[OptimizationResult, ExecutionResult]:
        """Optimize and execute a workload with per-query aggregates.

        The Section 7.2 extension end to end: :meth:`optimize` over the
        queries' column sets, then :meth:`execute` with each query's
        own aggregate list — every grouping carries the union of its
        subtree's state columns, merged up the plan and finalized into
        each query's answer (AVG stores SUM and COUNT(col)).
        """
        optimization = self.optimize(queries_to_column_sets(queries), options)
        execution = self.execute(
            optimization.plan, aggregates=aggregates_by_columns(queries)
        )
        return optimization, execution
