"""Executing a GB-MQO plan against the engine (Section 5.2).

The executor is an *interpreter of physical plans*.  A logical plan is
first lowered (:func:`repro.physical.lowering.lower`) onto a
:class:`~repro.physical.plan.PhysicalPlan` — typed operators (``Scan``,
``IndexScan``, ``HashGroupBy``, ``SortGroupBy``, ``Reaggregate``,
``CubeExpand``, ``RollupExpand``, ``Materialize``, ``DropTemp``)
grouped into pipelines — verified against the physical invariant rules
(PV012+), and then interpreted.  The hash-vs-sort regime of every
grouping is chosen at lowering time from the cost model and column
statistics; per-operator memory estimates are threaded against an
optional plan-wide budget, falling back to the engine's partitioned
execution when a grouping's transient state would not fit.

Execution comes in three modes:

* **serial** (the default): pipelines run in order — exactly the
  paper's client-side script of Group By / DROP statements.
* **parallel wavefront** (``mode="wavefront"``): the lowered plan
  carries dependency waves; pipelines within a wave share no
  dependencies and run on a thread pool (numpy releases the GIL inside
  the reductions).  Results are bit-identical to serial execution and
  the merged :class:`ExecutionMetrics` totals are equal — each pipeline
  aggregates into its own metrics object, folded back in deterministic
  schedule order.
* **morsel** (``mode="morsel"``): two-phase morsel-driven aggregation.
  Groupings in a wave that read the same input are batched; the input
  splits into row-range morsels, each morsel pays **one** shared
  row-store pass feeding every grouping in the batch, and each grouping
  computes decomposable partial states per morsel which merge into
  results bit-identical to the single-pass kernels
  (:mod:`repro.engine.morsel`).  Thread-parallelism runs *inside* the
  operator batch — morsel workers — instead of across plan nodes.
  Deterministic counters are recorded exactly as a serial run would
  (each grouping is charged one full pass over its input), so metrics
  totals are equal to serial's even though the physical traffic is one
  pass per morsel per batch.

``mode="auto"`` (the default) resolves per plan: serial when
``parallelism`` is 1 or the workload is below the cost model's morsel
thresholds (small inputs never regress), morsel otherwise.

Either way, one plan-wide
:class:`~repro.engine.dictcache.DictionaryCache` is threaded through
every Group By, so each base-relation column is factorized at most once
per plan execution no matter how many operators touch it.

CUBE and ROLLUP nodes (Section 7.1) execute exactly the strategy their
cost model assumes: the full Group By is computed from the node's
parent, and every other covered grouping is computed from that result
by the expand operators.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cache import ResultCache, aggregate_signature
from repro.core.plan import LogicalPlan, PlanNode
from repro.core.scheduling import Step
from repro.engine.aggregation import AggregateSpec, group_by, reaggregate_specs
from repro.engine.catalog import Catalog
from repro.engine.dictcache import DictionaryCache
from repro.engine.indexes import Index
from repro.engine.join import union_all
from repro.engine.metrics import ExecutionMetrics
from repro.engine.morsel import MorselGrouping, compute_morsel_groupings
from repro.engine.partitioned_cube import partition_by_values
from repro.engine.table import Table
from repro.engine.types import EngineError
from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import NOOP_TRACER, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow import AnalysisContext
    from repro.physical.plan import (
        CubeExpand,
        DropTemp,
        GroupingOperator,
        PhysicalPipeline,
        PhysicalPlan,
        RollupExpand,
    )
    from repro.stats.cardinality import CardinalityEstimator


class ExecutionError(EngineError):
    """The executor was given an inconsistent plan or schedule."""


#: Mode knob values: ``auto`` resolves per plan, the rest force one of
#: :data:`repro.physical.plan.EXECUTION_MODES` (kept in sync by test).
MODE_CHOICES = ("auto", "serial", "wavefront", "morsel")


def temp_name_for(node: PlanNode) -> str:
    """Deterministic temporary-table name for a plan node."""
    return "tmp__" + "__".join(sorted(node.columns))


@dataclass
class ExecutionResult:
    """Results and accounting for one plan execution.

    Attributes:
        results: query column set -> result table (keys + ``cnt``).
        metrics: operator-level counters for the run.
        peak_temp_bytes: highest temporary storage held at once.
        wall_seconds: elapsed wall-clock time.
    """

    results: dict[frozenset[str], Table] = field(default_factory=dict)
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    peak_temp_bytes: int = 0
    wall_seconds: float = 0.0


class PlanExecutor:
    """Runs logical plans for COUNT(*) (or custom aggregate) workloads.

    Args:
        catalog: catalog holding the base relation (and its indexes).
        base_table: name of the base relation R.
        aggregates: aggregate list for every required query; defaults to
            COUNT(*) AS cnt.  Must be distributive (see
            :func:`repro.engine.aggregation.reaggregate_specs`).
        use_indexes: answer base-table Group Bys from a covering index
            when one exists and is narrower than the referenced columns.
        tracer: span tracer; when enabled, the run is wrapped in an
            ``execute.plan`` span with one ``execute.node`` child per
            pipeline carrying actual rows/bytes (grouped under
            ``execute.wave`` spans in parallel mode) and one
            ``execute.<operator>`` grandchild per physical operator.
            Tracing is read-only: results and deterministic counters
            are identical with it on or off.
        parallelism: worker threads for wavefront or morsel execution.
            1 (the default) executes the lowered linear schedule
            serially; >= 2 runs concurrently (waves of pipelines, or
            morsel workers inside operator batches), producing
            bit-identical tables and equal metrics totals.
        mode: execution mode — one of :data:`MODE_CHOICES`.  ``auto``
            (the default) picks serial for ``parallelism=1`` and
            otherwise asks the cost model: morsel execution when the
            base relation and grouping count clear the two-phase
            thresholds, serial below them (so small workloads never pay
            parallel overhead).  ``serial``, ``wavefront``, and
            ``morsel`` force that mode.
        dictionary_cache: a shared plan-wide dictionary cache.  By
            default each ``execute`` call builds a fresh one; serving
            workloads that re-execute plans over the same base relation
            can pass one in to keep encodes warm across runs.
        estimator: column statistics for the lowering's hash-vs-sort
            choice and per-operator estimates; None lowers structurally
            (hash-preferred groupings, zero estimates) — execution is
            bit-identical either way.
        memory_budget_bytes: plan-wide transient-memory budget; grouping
            operators whose estimate exceeds it are demoted to the sort
            regime and then to partitioned execution.  Requires an
            estimator to have any effect.
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry`; when
            enabled, every run records aggregate counters and latency
            histograms (runs, per-operator seconds, grouping regimes,
            dictionary-cache hits/misses) labeled by relation, operator,
            and regime.  Defaults to the process-wide registry, which is
            the no-op singleton unless explicitly enabled — recording is
            read-only and never changes results.
        result_cache: semantic result cache
            (:class:`~repro.cache.ResultCache`).  When given, the
            lowering substitutes ``CacheRead`` operators for groupings
            the cache can serve, the interpreter serves them (falling
            back to cold computation if an entry was evicted), and
            every finished grouping result is offered back to the
            cache.  None (the default) runs cache-unaware —
            bit-identical to the pre-cache behavior.

    Concurrency: plan runs on one catalog serialise — every
    :meth:`execute_physical` holds ``catalog.run_lock`` from its first
    operator to its temp sweep — and each run drops only the temporary
    tables it materialised itself.  Executors over *different* catalogs
    run fully concurrently.
    """

    def __init__(
        self,
        catalog: Catalog,
        base_table: str,
        aggregates: list[AggregateSpec] | None = None,
        use_indexes: bool = True,
        tracer: Tracer | None = None,
        parallelism: int = 1,
        dictionary_cache: DictionaryCache | None = None,
        estimator: "CardinalityEstimator | None" = None,
        memory_budget_bytes: float | None = None,
        metrics: MetricsRegistry | None = None,
        mode: str = "auto",
        result_cache: ResultCache | None = None,
    ) -> None:
        if parallelism < 1:
            raise ExecutionError("parallelism must be >= 1")
        if mode not in MODE_CHOICES:
            raise ExecutionError(
                f"unknown execution mode {mode!r}; expected one of "
                f"{MODE_CHOICES}"
            )
        self._catalog = catalog
        self._base_table = base_table
        self._aggregates = aggregates or [AggregateSpec.count_star("cnt")]
        self._reaggregates = reaggregate_specs(self._aggregates)
        self._use_indexes = use_indexes
        self._tracer = tracer or NOOP_TRACER
        self._parallelism = parallelism
        self._dictionary_cache = dictionary_cache
        self._estimator = estimator
        self._memory_budget_bytes = memory_budget_bytes
        self._metrics = metrics if metrics is not None else get_metrics()
        self._mode = mode
        self._result_cache = result_cache
        self._agg_sig = aggregate_signature(self._aggregates)

    # -- lowering -----------------------------------------------------------------

    def resolve_mode(self, plan: LogicalPlan) -> str:
        """The execution mode this executor would run ``plan`` under.

        Forced modes pass through.  ``auto`` resolves from the workload
        shape: serial for ``parallelism=1``; with workers available,
        the cost model's :meth:`~repro.costmodel.engine_model.
        EngineCostModel.execution_mode_choice` picks morsel execution
        only when the base relation and grouping count clear the
        two-phase thresholds — small workloads fall back to serial so
        parallel execution never regresses them.
        """
        if self._mode != "auto":
            return self._mode
        if self._parallelism <= 1:
            return "serial"
        n_groupings = plan.node_count()
        if self._estimator is not None:
            from repro.costmodel.engine_model import EngineCostModel

            model = EngineCostModel(
                self._estimator,
                catalog=self._catalog,
                base_table=self._base_table,
                use_indexes=self._use_indexes,
            )
            return model.execution_mode_choice(
                n_groupings, self._parallelism
            ).mode
        from repro.costmodel.engine_model import default_execution_mode

        rows = self._catalog.get(self._base_table).num_rows
        return default_execution_mode(rows, n_groupings, self._parallelism)

    def lower(
        self, plan: LogicalPlan, steps: list[Step] | None = None
    ) -> "PhysicalPlan":
        """Lower ``plan`` to the physical plan this executor would run.

        Serial lowering honors ``steps`` (depth-first when None);
        wavefront and morsel lowering build the wavefront schedule and
        reject an explicit linear order.
        """
        from repro.physical.lowering import lower as lower_plan
        from repro.physical.plan import PhysicalPlanError

        mode = self.resolve_mode(plan)
        if steps is not None and (mode != "serial" or self._parallelism > 1):
            # Even when auto resolves a parallel executor to serial, a
            # caller-supplied linear order has no meaning: the executor
            # stays free to re-resolve per plan.
            raise ExecutionError(
                "parallel execution schedules itself; pass steps=None"
            )
        try:
            return lower_plan(
                plan,
                catalog=self._catalog,
                base_table=self._base_table,
                aggregates=self._aggregates,
                use_indexes=self._use_indexes,
                estimator=self._estimator,
                memory_budget_bytes=self._memory_budget_bytes,
                steps=steps,
                mode=mode,
                parallelism=self._parallelism,
                result_cache=self._result_cache,
            )
        except PhysicalPlanError as exc:
            # An inconsistent schedule is the caller's error, reported
            # with the executor's exception type as it always was.
            raise ExecutionError(str(exc)) from exc

    def execute(
        self, plan: LogicalPlan, steps: list[Step] | None = None
    ) -> ExecutionResult:
        """Lower ``plan``, verify the physical plan, and interpret it.

        With ``parallelism >= 2`` the plan's wavefront schedule is used
        and ``steps`` must be None — a caller-supplied linear order has
        no meaning once independent pipelines run concurrently.
        """
        if plan.relation != self._base_table:
            raise ExecutionError(
                f"plan targets {plan.relation!r}, executor is bound to "
                f"{self._base_table!r}"
            )
        physical = self.lower(plan, steps)
        physical.check(self.analysis_context())
        return self.execute_physical(physical)

    def analysis_context(self) -> "AnalysisContext":
        """Dataflow-analysis context with this executor's ingredients.

        With an estimator attached this enables the full rule catalog
        — including the cardinality-interval containment cross-check
        of the lowering's ``est_rows`` (PV022), making every verified
        execution a standing test of the cost model.
        """
        from repro.analysis.dataflow import AnalysisContext

        return AnalysisContext(
            catalog=self._catalog,
            base_table=self._base_table,
            estimator=self._estimator,
        )

    # -- physical interpretation -------------------------------------------------

    def execute_physical(self, physical: "PhysicalPlan") -> ExecutionResult:
        """Interpret a lowered physical plan (serial/wavefront/morsel).

        Holds the catalog's run lock for the whole run, so concurrent
        callers on one catalog execute one after the other (wavefront
        and morsel workers *inside* a run are unaffected).
        """
        with self._catalog.run_lock:
            return self._run_physical(physical)

    def _run_physical(self, physical: "PhysicalPlan") -> ExecutionResult:
        parallel = physical.waves is not None
        dictionaries = self._dictionary_cache or DictionaryCache(
            metrics=self._metrics
        )
        registry = self._metrics
        dictionary_stats_before = (
            dictionaries.stats() if registry.enabled else {}
        )
        result = ExecutionResult()
        started = monotonic()
        peak_before = self._catalog.peak_temp_bytes
        current_before = self._catalog.current_temp_bytes
        temps_before = set(self._catalog.temp_names())
        with self._tracer.span(
            "execute.plan",
            relation=physical.relation,
            steps=(
                len(physical.compute_pipelines())
                if parallel
                else len(physical.pipelines)
            ),
            parallelism=self._parallelism,
            mode=physical.mode,
        ) as plan_span:
            try:
                if physical.mode == "morsel":
                    local_peak = self._execute_morsel(
                        physical, result, dictionaries, current_before
                    )
                elif parallel:
                    local_peak = self._execute_wavefront(
                        physical, result, dictionaries, current_before
                    )
                else:
                    local_peak = self._execute_serial(
                        physical, result, dictionaries, current_before
                    )
            finally:
                # Leave none of this run's temporaries behind, even on
                # failure; temps that predate the run are not ours.
                for name in self._catalog.temp_names():
                    if name not in temps_before:
                        self._catalog.drop_temp(name)
            plan_span.set(
                work=result.metrics.work,
                queries=result.metrics.queries_executed,
                **{
                    f"dictionary_{key}": value
                    for key, value in dictionaries.stats().items()
                },
            )
        result.wall_seconds = monotonic() - started
        result.peak_temp_bytes = local_peak - current_before
        result.metrics.mode = physical.mode
        # Keep the catalog's all-time peak meaningful across runs.  The
        # write goes through the catalog so it happens under the temp
        # lock (mutating another object's lock-guarded state directly
        # is exactly what the CL209 concurrency lint rejects).
        self._catalog.set_peak_temp_bytes(max(peak_before, local_peak))
        if registry.enabled:
            self._record_run_metrics(
                registry,
                physical,
                result,
                dictionaries,
                dictionary_stats_before,
            )
        return result

    def _record_run_metrics(
        self,
        registry: MetricsRegistry,
        physical: "PhysicalPlan",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        dictionary_stats_before: dict[str, int],
    ) -> None:
        """Fold one run's totals into the metrics registry."""
        relation = physical.relation
        mode = physical.mode
        registry.inc(
            "repro_executor_runs_total", relation=relation, mode=mode
        )
        registry.observe(
            "repro_executor_run_seconds",
            result.wall_seconds,
            relation=relation,
            mode=mode,
        )
        registry.inc(
            "repro_executor_queries_total",
            result.metrics.queries_executed,
            relation=relation,
        )
        registry.inc(
            "repro_executor_work_bytes_total",
            result.metrics.work,
            relation=relation,
        )
        registry.set_gauge(
            "repro_executor_peak_temp_bytes",
            result.peak_temp_bytes,
            relation=relation,
        )
        # Hit/miss deltas rather than totals: a shared serving cache
        # outlives this run, and its counters must not double-count.
        after = dictionaries.stats()
        for stat in ("hits", "misses"):
            delta = after[stat] - dictionary_stats_before.get(stat, 0)
            if delta:
                registry.inc(
                    f"repro_dictcache_{stat}_total", delta, relation=relation
                )

    # -- execution modes -----------------------------------------------------------

    def _execute_serial(
        self,
        physical: "PhysicalPlan",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        current_before: int,
    ) -> int:
        local_peak = current_before
        for pipeline in physical.pipelines:
            if pipeline.is_compute:
                self._run_pipeline(physical, pipeline, result, dictionaries)
            else:
                self._run_drop(physical, pipeline)
            local_peak = max(local_peak, self._catalog.current_temp_bytes)
        return local_peak

    def _execute_wavefront(
        self,
        physical: "PhysicalPlan",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        current_before: int,
    ) -> int:
        """Run the dependency-wave schedule on a thread pool.

        Each pipeline aggregates into its own ``ExecutionMetrics``;
        after every wave the per-pipeline metrics fold into the result
        in schedule order, so totals are deterministic and equal to a
        serial run's regardless of thread interleaving.
        """
        local_peak = current_before
        assert physical.waves is not None
        with ThreadPoolExecutor(
            max_workers=self._parallelism,
            thread_name_prefix="repro-wave",
        ) as pool:
            for wave in physical.waves:
                with self._tracer.span(
                    "execute.wave",
                    index=wave.index,
                    nodes=len(wave.pipelines),
                ) as wave_span:
                    futures = [
                        pool.submit(
                            self._run_pipeline_isolated,
                            physical,
                            physical.pipelines[index],
                            result,
                            dictionaries,
                            wave_span,
                        )
                        for index in wave.pipelines
                    ]
                    wave_metrics = [future.result() for future in futures]
                # Fold in deterministic schedule order, not completion
                # order; peak temp storage is maximal right before the
                # wave's drops run.
                for metrics in wave_metrics:
                    result.metrics.merge_in(metrics)
                local_peak = max(
                    local_peak, self._catalog.current_temp_bytes
                )
                for index in wave.drops:
                    self._run_drop(physical, physical.pipelines[index])
        return local_peak

    def _execute_morsel(
        self,
        physical: "PhysicalPlan",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        current_before: int,
    ) -> int:
        """Run the wave schedule with morsel-driven operator batches.

        Per wave, pipelines whose grouping was lowered with
        ``morsels > 1`` are batched by input table; each batch computes
        all its groupings over shared morsel scans
        (:func:`~repro.engine.morsel.compute_morsel_groupings`), with
        thread workers *inside* the batch.  Pipelines then run in
        schedule order — batched groupings pick up their precomputed
        result and record the exact counters a serial run would, the
        rest execute normally — so results and metrics are
        deterministic and equal to serial execution's.
        """
        local_peak = current_before
        assert physical.waves is not None
        for wave in physical.waves:
            with self._tracer.span(
                "execute.wave",
                index=wave.index,
                nodes=len(wave.pipelines),
            ) as wave_span:
                batches: dict[str, list[tuple[int, object]]] = {}
                for index in wave.pipelines:
                    entry = self._morsel_batch_entry(
                        physical, physical.pipelines[index]
                    )
                    if entry is not None:
                        source_name, op = entry
                        batches.setdefault(source_name, []).append(
                            (index, op)
                        )
                precomputed: dict[int, Table] = {}
                for source_name, members in batches.items():
                    # A batch of one shares nothing: the serial path is
                    # strictly cheaper than partial-state plumbing.
                    if len(members) < 2:
                        continue
                    self._run_morsel_batch(
                        physical,
                        source_name,
                        members,
                        dictionaries,
                        precomputed,
                        wave_span,
                    )
                for index in wave.pipelines:
                    self._run_pipeline(
                        physical,
                        physical.pipelines[index],
                        result,
                        dictionaries,
                        parent_span=wave_span,
                        precomputed=precomputed,
                    )
                local_peak = max(
                    local_peak, self._catalog.current_temp_bytes
                )
                for index in wave.drops:
                    self._run_drop(physical, physical.pipelines[index])
        return local_peak

    def _morsel_batch_entry(
        self, physical: "PhysicalPlan", pipeline: "PhysicalPipeline"
    ) -> tuple[str, "GroupingOperator"] | None:
        """(input table name, grouping op) if the pipeline batches.

        A pipeline joins a morsel batch when its unpartitioned grouping
        reads either the base relation through a plain ``Scan`` or a
        materialized temp through ``Reaggregate``; index scans and
        budget-partitioned groupings keep their own execution scheme.
        A single-morsel batch still shares its one scan across every
        member, so small inputs batch too.
        """
        from repro.physical import plan as phys

        for op_id in pipeline.ops:
            op = physical.op(op_id)
            if isinstance(op, phys.Reaggregate):
                if op.partitions != 1:
                    return None
                producer = physical.op(op.source)
                if not isinstance(producer, phys.Materialize):
                    return None
                return producer.output, op
            if isinstance(op, phys.GroupingOperator):
                if op.partitions != 1:
                    return None
                source = physical.op(op.source)
                if not isinstance(source, phys.Scan):
                    return None
                return source.table, op
        return None

    def _run_morsel_batch(
        self,
        physical: "PhysicalPlan",
        source_name: str,
        members: list[tuple[int, object]],
        dictionaries: DictionaryCache,
        precomputed: dict[int, Table],
        wave_span: Span,
    ) -> None:
        """Compute one shared-scan batch of groupings over morsels."""
        from repro.physical import plan as phys

        table = self._catalog.get(source_name)
        groupings = []
        morsels = 1
        for _index, op in members:
            assert isinstance(op, phys.GroupingOperator)
            aggregates = (
                self._reaggregates
                if isinstance(op, phys.Reaggregate)
                else self._aggregates
            )
            groupings.append(
                MorselGrouping(
                    table,
                    list(op.keys),
                    aggregates,
                    name=op.output,
                    dictionaries=dictionaries,
                )
            )
            morsels = max(morsels, op.morsels)
        # Feasibility is only known here (it needs the per-key
        # cardinalities).  With fewer than two feasible groupings the
        # shared scan amortizes nothing, so the whole batch — including
        # would-be fallbacks — takes the serial interpreter instead.
        if sum(1 for g in groupings if g.feasible) < 2:
            return
        registry = self._metrics
        with self._tracer.span_under(
            wave_span,
            "execute.morsel_batch",
            source=source_name,
            groupings=len(members),
            morsels=morsels,
        ) as batch_span:
            started = monotonic()
            tables, stats = compute_morsel_groupings(
                table, groupings, morsels, self._parallelism
            )
            batch_seconds = monotonic() - started
            for i, (start, stop) in enumerate(stats.ranges):
                with self._tracer.span_under(
                    batch_span,
                    "execute.morsel",
                    index=i,
                    rows=stop - start,
                    bytes=stats.bytes_per_morsel[i],
                ):
                    pass
            batch_span.set(
                morsels_run=stats.morsels,
                fallbacks=stats.fallbacks,
                bytes=sum(stats.bytes_per_morsel),
            )
            if registry.enabled:
                relation = physical.relation
                registry.inc(
                    "repro_executor_morsel_batches_total",
                    relation=relation,
                )
                registry.inc(
                    "repro_executor_morsels_total",
                    stats.morsels,
                    relation=relation,
                )
                registry.observe(
                    "repro_executor_morsel_batch_seconds",
                    batch_seconds,
                    relation=relation,
                )
                for start, stop in stats.ranges:
                    registry.observe(
                        "repro_executor_morsel_rows",
                        stop - start,
                        relation=relation,
                    )
        for (index, op), out in zip(members, tables):
            assert isinstance(op, phys.GroupingOperator)
            precomputed[op.op_id] = out

    def _run_pipeline_isolated(
        self,
        physical: "PhysicalPlan",
        pipeline: "PhysicalPipeline",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        wave_span: Span,
    ) -> ExecutionMetrics:
        metrics = ExecutionMetrics()
        self._run_pipeline(
            physical,
            pipeline,
            result,
            dictionaries,
            metrics=metrics,
            parent_span=wave_span,
        )
        return metrics

    # -- pipeline interpreter ------------------------------------------------------

    def _run_drop(
        self, physical: "PhysicalPlan", pipeline: "PhysicalPipeline"
    ) -> None:
        from repro.physical.plan import DropTemp as DropTempOp

        for op_id in pipeline.ops:
            op = physical.op(op_id)
            if not isinstance(op, DropTempOp):
                raise ExecutionError(
                    f"drop pipeline contains non-drop operator {op.describe()}"
                )
            with self._tracer.span("execute.drop_temp", temp=op.temp):
                self._catalog.drop_temp(op.temp)

    def _run_pipeline(
        self,
        physical: "PhysicalPlan",
        pipeline: "PhysicalPipeline",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        metrics: ExecutionMetrics | None = None,
        parent_span: Span | None = None,
        precomputed: dict[int, Table] | None = None,
    ) -> None:
        metrics = result.metrics if metrics is None else metrics
        bytes_before = metrics.work
        attrs = dict(
            node=pipeline.label,
            source=pipeline.source,
            kind=pipeline.kind,
            materialized=pipeline.materialized,
        )
        if parent_span is None:
            span_context = self._tracer.span("execute.node", **attrs)
        else:
            span_context = self._tracer.span_under(
                parent_span, "execute.node", **attrs
            )
        with span_context as span:
            # Intra-pipeline data flow: operator id -> produced input
            # (a Table, or the Index an IndexScan resolved).  Data from
            # other pipelines is only reachable through the catalog.
            env: dict[int, Table | Index] = {}
            rows_out: int | None = None
            for op_id in pipeline.ops:
                produced = self._run_op(
                    physical, physical.op(op_id), env, result, metrics,
                    dictionaries, span, precomputed,
                )
                if rows_out is None and produced is not None:
                    rows_out = produced
            step_bytes = metrics.work - bytes_before
            if pipeline.attribute:
                metrics.per_query_bytes[pipeline.label] = step_bytes
            span.set(rows_out=rows_out or 0, bytes=step_bytes)

    def _run_op(
        self,
        physical: "PhysicalPlan",
        op,
        env: dict[int, Table | Index],
        result: ExecutionResult,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        node_span: Span,
        precomputed: dict[int, Table] | None = None,
    ) -> int | None:
        """Interpret one operator; returns grouping output rows (else None)."""
        registry = self._metrics
        if not registry.enabled:
            return self._interpret_op(
                physical, op, env, result, metrics, dictionaries, node_span,
                precomputed,
            )
        op_started = monotonic()
        try:
            return self._interpret_op(
                physical, op, env, result, metrics, dictionaries, node_span,
                precomputed,
            )
        finally:
            registry.observe(
                "repro_executor_op_seconds",
                monotonic() - op_started,
                op=op.op_name,
            )
            registry.inc("repro_executor_ops_total", op=op.op_name)

    def _interpret_op(
        self,
        physical: "PhysicalPlan",
        op,
        env: dict[int, Table | Index],
        result: ExecutionResult,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        node_span: Span,
        precomputed: dict[int, Table] | None = None,
    ) -> int | None:
        from repro.physical import plan as phys

        with self._tracer.span_under(
            node_span, f"execute.{op.op_name}", op_id=op.op_id
        ) as op_span:
            if isinstance(op, phys.Scan):
                table = self._catalog.get(op.table)
                if op.charge:
                    metrics.record_scan(table.num_rows, table.touch())
                env[op.op_id] = table
                op_span.set(rows_out=table.num_rows)
                return None
            if isinstance(op, phys.IndexScan):
                index = self._resolve_index(op.table, op.index)
                env[op.op_id] = index
                op_span.set(sorted_prefix=op.sorted_prefix)
                return None
            if isinstance(op, phys.CacheRead):
                table, served = self._run_cache_read(
                    op, metrics, dictionaries
                )
                env[op.op_id] = table
                if op.query is not None:
                    result.results[frozenset(op.query)] = table
                op_span.set(
                    rows_out=table.num_rows,
                    served=served,
                    derived=op.derived,
                )
                return table.num_rows
            morsel_batched = (
                precomputed is not None
                and op.op_id in precomputed
                and isinstance(op, phys.GroupingOperator)
            )
            if morsel_batched:
                assert precomputed is not None
                table = self._claim_precomputed(
                    physical, op, precomputed[op.op_id], metrics
                )
            elif isinstance(op, phys.Reaggregate):
                table = self._run_reaggregate(physical, op, env, metrics,
                                              dictionaries)
            elif isinstance(op, phys.GroupingOperator):
                table = self._run_grouping(op, env, metrics, dictionaries)
            elif isinstance(op, phys.CubeExpand):
                self._run_cube_expand(op, env, result, metrics, dictionaries)
                op_span.set(queries=len(op.queries))
                return None
            elif isinstance(op, phys.RollupExpand):
                self._run_rollup_expand(
                    op, env, result, metrics, dictionaries
                )
                op_span.set(prefixes=len(op.order) - 1)
                return None
            elif isinstance(op, phys.Materialize):
                self._run_materialize(physical, op, env, metrics)
                return None
            elif isinstance(op, phys.DropTemp):
                self._catalog.drop_temp(op.temp)
                return None
            else:
                raise ExecutionError(
                    f"unknown physical operator {op.op_name!r}"
                )
            # Shared tail of the grouping operators.
            if morsel_batched:
                regime = "morsel"
            elif isinstance(op, phys.Reaggregate):
                regime = op.strategy
            elif isinstance(op, phys.SortGroupBy):
                regime = "sort"
            else:
                regime = "hash"
            env[op.op_id] = table
            if op.query is not None:
                result.results[frozenset(op.query)] = table
            if self._result_cache is not None:
                self._populate_cache(op, table)
            op_span.set(rows_out=table.num_rows, regime=regime)
            self._metrics.inc(
                "repro_executor_groupings_total",
                op=op.op_name,
                regime=regime,
            )
            return table.num_rows

    # -- operator implementations --------------------------------------------------

    def _resolve_index(self, table: str, name: str) -> Index:
        for index in self._catalog.indexes_on(table):
            if index.name == name:
                return index
        raise ExecutionError(f"index {name!r} on {table!r} does not exist")

    def _claim_precomputed(
        self,
        physical: "PhysicalPlan",
        op: "GroupingOperator",
        table: Table,
        metrics: ExecutionMetrics,
    ) -> Table:
        """Adopt a morsel-batch result, metered exactly as serial is.

        The batch already did the physical work — one shared row-store
        pass per morsel for the whole batch.  The *deterministic*
        counters, however, charge this operator what the serial
        interpreter would: one full scan of its input
        (``scan_bytes`` meters without re-touching memory) plus one
        grouping.  Metrics totals are therefore mode-independent while
        the real memory traffic is what morsel execution saves.
        """
        from repro.physical import plan as phys

        metrics.queries_executed += 1
        if isinstance(op, phys.Reaggregate):
            producer = physical.op(op.source)
            assert isinstance(producer, phys.Materialize)
            source = self._catalog.get(producer.output)
        else:
            scan = physical.op(op.source)
            assert isinstance(scan, phys.Scan)
            source = self._catalog.get(scan.table)
        if op.charge_scan:
            metrics.record_scan(source.num_rows, source.scan_bytes())
        metrics.record_group_by()
        return table

    def _run_grouping(
        self,
        op: "GroupingOperator",
        env: dict[int, Table | Index],
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
    ) -> Table:
        """HashGroupBy / SortGroupBy over an access path in ``env``."""
        from repro.physical.plan import SortGroupBy

        metrics.queries_executed += 1
        strategy = "sort" if isinstance(op, SortGroupBy) else "hash"
        source = env.get(op.source)
        if source is None:
            raise ExecutionError(
                f"operator {op.op_id} reads missing pipeline input "
                f"{op.source}"
            )
        keys = list(op.keys)
        if isinstance(source, Index):
            return source.group_by(
                keys,
                self._aggregates,
                op.output,
                metrics,
                dictionaries=dictionaries,
                strategy=strategy,
            )
        if op.partitions > 1:
            return self._group_partitioned(
                source, op, self._aggregates, metrics, dictionaries, strategy
            )
        if op.charge_scan:
            return group_by(
                source,
                keys,
                self._aggregates,
                name=op.output,
                metrics=metrics,
                dictionaries=dictionaries,
                strategy=strategy,
            )
        # An upstream charged Scan already paid for the pass over the
        # input (shared scan); meter only the grouping itself.
        table = group_by(
            source,
            keys,
            self._aggregates,
            name=op.output,
            metrics=None,
            dictionaries=dictionaries,
            strategy=strategy,
        )
        metrics.record_group_by()
        return table

    def _run_reaggregate(
        self,
        physical: "PhysicalPlan",
        op,
        env: dict[int, Table | Index],
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
    ) -> Table:
        """Group a materialized intermediate, resolved via the catalog.

        When the producer is a CacheRead the intermediate never touched
        the catalog — it lives only in the pipeline environment.
        """
        from repro.physical.plan import CacheRead as CacheReadOp
        from repro.physical.plan import Materialize as MaterializeOp

        metrics.queries_executed += 1
        producer = physical.op(op.source)
        if isinstance(producer, CacheReadOp):
            cached = env.get(op.source)
            if not isinstance(cached, Table):
                raise ExecutionError(
                    f"reaggregate {op.op_id} reads cache entry "
                    f"{op.source} before it was served"
                )
            source = cached
        elif isinstance(producer, MaterializeOp):
            if producer.output not in self._catalog:
                raise ExecutionError(
                    f"intermediate {producer.output!r} was not "
                    "materialized before its consumers"
                )
            source = self._catalog.get(producer.output)
        else:
            raise ExecutionError(
                f"reaggregate {op.op_id} does not read a Materialize"
            )
        if op.partitions > 1:
            return self._group_partitioned(
                source, op, self._reaggregates, metrics, dictionaries,
                op.strategy,
            )
        return group_by(
            source,
            list(op.keys),
            self._reaggregates,
            name=op.output,
            metrics=metrics,
            dictionaries=dictionaries,
            strategy=op.strategy,
        )

    def _run_cache_read(
        self,
        op,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
    ) -> tuple[Table, bool]:
        """Serve a cached grouping result, recomputing if it was evicted.

        Returns ``(table, served)`` where ``served`` is False on the
        fallback path (the entry vanished between lowering and
        execution, so the grouping runs cold against the base table).
        An exact hit counts as an executed query; a derived hit does
        not — its downstream Reaggregate does the counting, mirroring
        the parent-reuse path.
        """
        cache = self._result_cache
        if cache is not None:
            table = cache.serve(op.fingerprint, derived=op.derived)
            if table is not None:
                if not op.derived:
                    metrics.queries_executed += 1
                if table.name != op.output:
                    table = table.rename(op.output)
                return table, True
        source = self._catalog.get(op.table)
        metrics.queries_executed += 1
        table = group_by(
            source,
            list(op.keys),
            self._aggregates,
            name=op.output,
            metrics=metrics,
            dictionaries=dictionaries,
        )
        return table, False

    def _populate_cache(self, op, table: Table) -> None:
        """Admit a finished grouping result into the result cache."""
        assert self._result_cache is not None
        base = self._catalog.get(self._base_table)
        self._result_cache.put(
            self._base_table,
            self._catalog.version(self._base_table),
            op.keys,
            table,
            est_cost=op.est_cost,
            input_rows=base.num_rows,
            agg_sig=self._agg_sig,
        )

    def _group_partitioned(
        self,
        source: Table,
        op: "GroupingOperator",
        aggregates: list[AggregateSpec],
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        strategy: str,
    ) -> Table:
        """Budget fallback: group per value-range partition, concatenate.

        Partitions split on contiguous dictionary-code ranges of the
        first (alphabetically lowest) key, so each partition's sorted
        group order is a contiguous slice of the global order and the
        concatenation is bit-identical to the unpartitioned result.
        The scan and grouping are metered once for the whole input —
        the partitioned pass still reads each row once.
        """
        keys = list(op.keys)
        if op.charge_scan:
            metrics.record_scan(source.num_rows, source.touch())
        metrics.record_group_by()
        parts = partition_by_values(source, keys[0], op.partitions)
        if len(parts) <= 1:
            return group_by(
                source,
                keys,
                aggregates,
                name=op.output,
                metrics=None,
                dictionaries=dictionaries,
                strategy=strategy,
            )
        grouped = [
            group_by(
                part,
                keys,
                aggregates,
                name=f"{op.output}_part{i}",
                metrics=None,
                dictionaries=None,
                strategy=strategy,
            )
            for i, part in enumerate(parts)
        ]
        return union_all(grouped, name=op.output)

    def _run_cube_expand(
        self,
        op: "CubeExpand",
        env: dict[int, Table | Index],
        result: ExecutionResult,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
    ) -> None:
        """Answer every covered CUBE grouping from the top's result."""
        top = env.get(op.source)
        if not isinstance(top, Table):
            raise ExecutionError(
                f"cube expand {op.op_id} reads missing pipeline input "
                f"{op.source}"
            )
        top.build_dictionaries()
        for query in op.queries:
            metrics.queries_executed += 1
            table = group_by(
                top,
                list(query),
                self._reaggregates,
                name="cube_" + "_".join(query),
                metrics=metrics,
                dictionaries=dictionaries,
            )
            result.results[frozenset(query)] = table

    def _run_rollup_expand(
        self,
        op: "RollupExpand",
        env: dict[int, Table | Index],
        result: ExecutionResult,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
    ) -> None:
        """Answer ROLLUP prefixes successively, each from the previous."""
        current = env.get(op.source)
        if not isinstance(current, Table):
            raise ExecutionError(
                f"rollup expand {op.op_id} reads missing pipeline input "
                f"{op.source}"
            )
        answers = set(op.answers)
        for i in range(len(op.order) - 1, 0, -1):
            prefix = list(op.order[:i])
            metrics.queries_executed += 1
            current = group_by(
                current,
                prefix,
                self._reaggregates,
                name="rollup_" + "_".join(prefix),
                metrics=metrics,
                dictionaries=dictionaries,
            )
            if tuple(sorted(prefix)) in answers:
                result.results[frozenset(prefix)] = current

    def _run_materialize(
        self,
        physical: "PhysicalPlan",
        op,
        env: dict[int, Table | Index],
        metrics: ExecutionMetrics,
    ) -> None:
        table = env.get(op.source)
        if not isinstance(table, Table):
            raise ExecutionError(
                f"materialize {op.op_id} reads missing pipeline input "
                f"{op.source}"
            )
        self._catalog.materialize_temp(table)
        # Dictionary-encode the temp's key columns now so child queries
        # aggregate over dense codes (the cost model charges this encode
        # work as part of materialization).
        producer = physical.op(op.source)
        for column in getattr(producer, "keys", ()):
            table.dictionary(column)
        metrics.record_materialize(table.num_rows, table.size_bytes())

