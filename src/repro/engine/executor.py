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

Every mode runs the lowered plan's waves, one after the other, in one
loop (:meth:`PlanExecutor._execute_waves`); the modes differ in what a
wave holds and how it pays for its inputs:

* **serial**: one pipeline per wave, in the lowered linear schedule —
  exactly the paper's client-side script of Group By / DROP statements.
* **parallel wavefront** (``mode="wavefront"``): the lowered plan's
  waves are its depth ranks; pipelines within a wave share no
  dependencies and run on a thread pool (numpy releases the GIL inside
  the reductions).  An input that two or more of a wave's plain
  groupings read pays **one** shared row-store pass per wave, split
  into row ranges across the workers, instead of one per grouping.
  Results are bit-identical to serial execution and the merged
  :class:`ExecutionMetrics` totals are equal — each pipeline
  aggregates into its own metrics object, folded back in deterministic
  schedule order, and every grouping is metered as serial meters it.
* **morsel** (``mode="morsel"``, never chosen by ``auto``): the same
  wave loop, but a wave's shared pass over an input with two or more
  feasible readers is a morsel batch — the input splits into row-range
  morsels, each morsel pays the pass for every reader, and the feasible
  readers compute decomposable partial states per morsel which merge
  into results bit-identical to the single-pass kernels
  (:mod:`repro.engine.morsel`).  The batch's other readers run their
  single-pass kernels on the pass it paid.

``mode="auto"`` (the default) is resolved per plan by the lowering:
serial when ``parallelism`` is 1, under a memory budget, or below the
cost model's row and grouping floors (small inputs never regress);
otherwise whichever of serial and wavefront the cost model prices
cheaper for this plan.  ``parallelism`` defaults to every CPU the
process may use.

Either way, one plan-wide
:class:`~repro.engine.dictcache.DictionaryCache` is threaded through
every Group By, so each base-relation column is factorized at most once
per plan execution no matter how many operators touch it.

CUBE and ROLLUP nodes (Section 7.1) execute exactly the strategy their
cost model assumes: the full Group By is computed from the node's
parent, and every other covered grouping is computed from that result
by the expand operators.

Per-query aggregates (Section 7.2) run on the same path: each grouping
operator carries the aggregates its subtree needs, and each query's
result is projected back to the aliases it asked for
(:class:`~repro.core.extensions.QueryAggregates`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.cache import ResultCache, aggregate_signature
from repro.core.extensions import AggregatesByQuery, QueryAggregates
from repro.core.plan import LogicalPlan, PlanNode
from repro.core.scheduling import Step
from repro.engine.aggregation import AggregateSpec, group_by, reaggregate_specs
from repro.engine.catalog import Catalog
from repro.engine.dictcache import DictionaryCache
from repro.engine.indexes import Index
from repro.engine.join import union_all
from repro.engine.metrics import ExecutionMetrics
from repro.engine.morsel import (
    MorselGrouping,
    Workers,
    compute_morsel_groupings,
    morsel_ranges,
    usable_cpus,
)
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
        PhysicalWave,
        RollupExpand,
    )
    from repro.stats.cardinality import CardinalityEstimator


class ExecutionError(EngineError):
    """The executor was given an inconsistent plan or schedule."""


def temp_name_for(node: PlanNode) -> str:
    """Deterministic temporary-table name for a plan node."""
    return "tmp__" + "__".join(sorted(node.columns))


@dataclass
class ExecutionResult:
    """Results and accounting for one plan execution.

    Attributes:
        results: query column set -> result table (keys + the query's
            aggregate columns, ``cnt`` by default).
        metrics: operator-level counters for the run.
        peak_temp_bytes: highest temporary storage held at once.
        wall_seconds: elapsed wall-clock time.
        physical: the physical plan that ran.
    """

    results: dict[frozenset[str], Table] = field(default_factory=dict)
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    peak_temp_bytes: int = 0
    wall_seconds: float = 0.0
    physical: "PhysicalPlan | None" = None


class PlanExecutor:
    """Runs logical plans for COUNT(*) (or custom aggregate) workloads.

    Args:
        catalog: catalog holding the base relation (and its indexes).
        base_table: name of the base relation R.
        aggregates: aggregate list for every required query; defaults to
            COUNT(*) AS cnt.  Must be distributive (see
            :func:`repro.engine.aggregation.reaggregate_specs`).  A
            mapping from query column set to that query's own list
            (:func:`repro.core.extensions.aggregates_by_columns`) runs
            Section 7.2's per-query aggregates, AVG included.
        use_indexes: answer base-table Group Bys from a covering index
            when one exists and is narrower than the referenced columns.
        tracer: span tracer; when enabled, the run is wrapped in an
            ``execute.plan`` span with one ``execute.wave`` child per
            wave, one ``execute.node`` under it per pipeline carrying
            actual rows/bytes, and one
            ``execute.<operator>`` grandchild per physical operator.
            Tracing is read-only: results and deterministic counters
            are identical with it on or off.
        parallelism: worker threads for wavefront or morsel execution;
            None (the default) is every CPU the process may use
            (:func:`~repro.engine.morsel.usable_cpus`).  1 executes the
            lowered linear schedule serially; >= 2 may run concurrently
            (a wave's pipelines, and its shared input passes split into
            row ranges), producing bit-identical tables and equal
            metrics totals.
        mode: execution mode — ``auto`` (the default) or one of
            :data:`~repro.physical.plan.EXECUTION_MODES`.  The lowering
            resolves ``auto`` (:func:`~repro.physical.lowering.lower`):
            serial for ``parallelism=1``, otherwise the cheaper of
            serial and wavefront as the cost model prices the plan.
            ``serial``, ``wavefront``, and ``morsel`` force that mode;
            ``morsel`` runs only when forced.
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
        aggregates: list[AggregateSpec] | AggregatesByQuery | None = None,
        use_indexes: bool = True,
        tracer: Tracer | None = None,
        parallelism: int | None = None,
        dictionary_cache: DictionaryCache | None = None,
        estimator: "CardinalityEstimator | None" = None,
        memory_budget_bytes: float | None = None,
        metrics: MetricsRegistry | None = None,
        mode: str = "auto",
        result_cache: ResultCache | None = None,
    ) -> None:
        if parallelism is None:
            parallelism = usable_cpus()
        if parallelism < 1:
            raise ExecutionError("parallelism must be >= 1")
        from repro.physical.plan import EXECUTION_MODES

        if mode != "auto" and mode not in EXECUTION_MODES:
            raise ExecutionError(
                f"unknown execution mode {mode!r}; expected 'auto' or one "
                f"of {EXECUTION_MODES}"
            )
        self._catalog = catalog
        self._base_table = base_table
        self._aggregates = aggregates or [AggregateSpec.count_star("cnt")]
        self._query_aggregates = QueryAggregates(self._aggregates)
        self._use_indexes = use_indexes
        self._tracer = tracer or NOOP_TRACER
        self._parallelism = parallelism
        self._dictionary_cache = dictionary_cache
        self._estimator = estimator
        self._memory_budget_bytes = memory_budget_bytes
        self._metrics = metrics if metrics is not None else get_metrics()
        self._mode = mode
        self._result_cache = result_cache

    # -- lowering -----------------------------------------------------------------

    def lower(
        self, plan: LogicalPlan, steps: list[Step] | None = None
    ) -> "PhysicalPlan":
        """Lower ``plan`` to the physical plan this executor would run.

        The pipelines follow ``steps`` (depth-first when None) in every
        mode; the lowering decides the mode and builds the waves.
        """
        from repro.physical.lowering import lower as lower_plan
        from repro.physical.plan import PhysicalPlanError

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
                mode=self._mode,
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
        """Lower ``plan`` (pipelines in ``steps`` order), verify the
        physical plan, and interpret it."""
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
        dictionaries = self._dictionary_cache or DictionaryCache(
            metrics=self._metrics
        )
        registry = self._metrics
        dictionary_stats_before = (
            dictionaries.stats() if registry.enabled else {}
        )
        result = ExecutionResult(physical=physical)
        started = monotonic()
        peak_before = self._catalog.peak_temp_bytes
        current_before = self._catalog.current_temp_bytes
        temps_before = set(self._catalog.temp_names())
        with self._tracer.span(
            "execute.plan",
            relation=physical.relation,
            steps=len(physical.compute_pipelines()),
            parallelism=self._parallelism,
            mode=physical.mode,
            mode_reason=physical.mode_reason,
        ) as plan_span:
            try:
                with Workers(self._parallelism, "repro-exec") as workers:
                    local_peak = self._execute_waves(
                        physical, result, dictionaries, current_before,
                        workers,
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

    def _execute_waves(
        self,
        physical: "PhysicalPlan",
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        current_before: int,
        workers: Workers,
    ) -> int:
        """Run the plan's waves in order, each wave's pipelines side by
        side on ``workers`` (a serial wave holds one pipeline).

        Before a wave's pipelines start, every input that two or more of
        its plain groupings read pays one shared pass: under forced
        ``morsel`` mode a morsel batch when two or more of those readers
        can run two-phase (:meth:`_run_morsel_batch`), otherwise one
        row-store pass (:meth:`_run_shared_scan`).  Those readers are
        *prepaid*: ``prepaid`` maps each one's op id to its merged
        morsel result, or to None when its single-pass kernel still
        runs — without touching the input again.  Each pipeline
        aggregates into its own ``ExecutionMetrics``; after every wave
        the per-pipeline metrics fold into the result in schedule
        order, so totals are deterministic and equal to a serial run's
        regardless of thread interleaving.
        """
        local_peak = current_before
        for wave in physical.waves:
            with self._tracer.span(
                "execute.wave",
                index=wave.index,
                nodes=len(wave.pipelines),
            ) as wave_span:
                prepaid: dict[int, Table | None] = {}
                for source_name, readers in self._shared_scan_readers(
                    physical, wave
                ).items():
                    # A single reader shares nothing: it pays its own
                    # pass inside its kernel, as serial does.
                    if len(readers) < 2:
                        continue
                    merged = (
                        self._run_morsel_batch(
                            physical, source_name, readers, dictionaries,
                            wave_span, workers,
                        )
                        if physical.mode == "morsel"
                        else {}
                    )
                    if not merged:
                        self._run_shared_scan(
                            source_name, len(readers), wave_span, workers
                        )
                    for op in readers:
                        prepaid[op.op_id] = merged.get(op.op_id)
                pipelines = [physical.pipelines[i] for i in wave.pipelines]
                wave_metrics = workers.map(
                    partial(
                        self._run_pipeline,
                        physical, pipelines, result, dictionaries, prepaid,
                        wave_span,
                    ),
                    len(pipelines),
                )
            # Fold in deterministic schedule order, not completion
            # order; peak temp storage is maximal right before the
            # wave's drops run.
            for metrics in wave_metrics:
                result.metrics.merge_in(metrics)
            local_peak = max(local_peak, self._catalog.current_temp_bytes)
            for index in wave.drops:
                self._run_drop(physical, physical.pipelines[index])
        return local_peak

    def _run_shared_scan(
        self,
        source_name: str,
        readers: int,
        wave_span: Span,
        workers: Workers,
    ) -> None:
        """Pay one row-store pass over ``source_name`` for a wave.

        The pass splits into ``workers.parallelism`` row ranges run on
        the plan's workers — the physical traffic the wave's
        ``readers`` prepaid groupings would otherwise each pay in full.
        """
        table = self._catalog.get(source_name)
        ranges = morsel_ranges(table.num_rows, workers.parallelism)
        with self._tracer.span_under(
            wave_span,
            "execute.shared_scan",
            source=source_name,
            readers=readers,
        ) as span:
            read = workers.map(
                lambda index: table.touch_range(*ranges[index]), len(ranges)
            )
            span.set(bytes=sum(read))

    def _shared_scan_readers(
        self, physical: "PhysicalPlan", wave: "PhysicalWave"
    ) -> dict[str, list["GroupingOperator"]]:
        """The wave's plain groupings, keyed by the input they read.

        Values are grouping ops in schedule order — the readers one
        shared pass over that input can feed.
        """
        readers: dict[str, list[GroupingOperator]] = {}
        for index in wave.pipelines:
            entry = self._shared_scan_entry(
                physical, physical.pipelines[index]
            )
            if entry is not None:
                source_name, op = entry
                readers.setdefault(source_name, []).append(op)
        return readers

    def _shared_scan_entry(
        self, physical: "PhysicalPlan", pipeline: "PhysicalPipeline"
    ) -> tuple[str, "GroupingOperator"] | None:
        """(input table name, grouping op) if the pipeline can share a
        scan of its input.

        A pipeline is a plain grouping — and so a shared-scan reader —
        when its unpartitioned grouping reads either the base relation
        through a plain ``Scan`` or a materialized temp through
        ``Reaggregate``; index scans and budget-partitioned groupings
        keep their own execution scheme.
        """
        from repro.physical import plan as phys

        for op_id in pipeline.ops:
            op = physical.op(op_id)
            if not isinstance(op, phys.GroupingOperator):
                continue
            if op.partitions != 1:
                return None
            source = physical.op(op.source)
            if isinstance(op, phys.Reaggregate):
                if not isinstance(source, phys.Materialize):
                    return None
                return source.output, op
            if not isinstance(source, phys.Scan):
                return None
            return source.table, op
        return None

    def _run_morsel_batch(
        self,
        physical: "PhysicalPlan",
        source_name: str,
        readers: list["GroupingOperator"],
        dictionaries: DictionaryCache,
        wave_span: Span,
        workers: Workers,
    ) -> dict[int, Table]:
        """Pay a wave's shared pass over ``source_name`` as a morsel
        batch; returns the feasible readers' merged results by op id.

        Feasibility is only known here (it needs the per-key
        cardinalities).  With fewer than two feasible readers a batch
        amortizes nothing, so nothing runs and the result is empty.
        """
        from repro.physical import plan as phys

        table = self._catalog.get(source_name)
        groupings: dict[int, MorselGrouping] = {}
        for op in readers:
            grouping = MorselGrouping(
                table,
                list(op.keys),
                (
                    reaggregate_specs(op.aggregates)
                    if isinstance(op, phys.Reaggregate)
                    else op.aggregates
                ),
                name=op.output,
                dictionaries=dictionaries,
            )
            if grouping.feasible:
                groupings[op.op_id] = grouping
        if len(groupings) < 2:
            return {}
        morsels = max(op.morsels for op in readers)
        registry = self._metrics
        with self._tracer.span_under(
            wave_span,
            "execute.morsel_batch",
            source=source_name,
            groupings=len(readers),
            morsels=morsels,
        ) as batch_span:
            started = monotonic()
            tables, stats = compute_morsel_groupings(
                table, list(groupings.values()), morsels, workers
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
                single_pass=len(readers) - len(groupings),
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
        return dict(zip(groupings, tables))

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
        pipelines: list["PhysicalPipeline"],
        result: ExecutionResult,
        dictionaries: DictionaryCache,
        prepaid: dict[int, Table | None],
        wave_span: Span,
        index: int,
    ) -> ExecutionMetrics:
        """Interpret a wave's ``pipelines[index]`` into its own metrics.

        ``prepaid`` maps the op ids of groupings whose input pass a
        wave already paid to a morsel batch's merged result, or to None
        when the grouping's kernel still runs (:meth:`_group_input`).
        """
        pipeline = pipelines[index]
        metrics = ExecutionMetrics()
        with self._tracer.span_under(
            wave_span,
            "execute.node",
            node=pipeline.label,
            source=pipeline.source,
            kind=pipeline.kind,
            materialized=pipeline.materialized,
        ) as span:
            # Intra-pipeline data flow: operator id -> produced input
            # (a Table, or the Index an IndexScan resolved).  Data from
            # other pipelines is only reachable through the catalog.
            env: dict[int, Table | Index] = {}
            rows_out: int | None = None
            for op_id in pipeline.ops:
                produced = self._run_op(
                    physical, physical.op(op_id), env, result, metrics,
                    dictionaries, span, prepaid,
                )
                if rows_out is None and produced is not None:
                    rows_out = produced
            if pipeline.attribute:
                metrics.per_query_bytes[pipeline.label] = metrics.work
            span.set(rows_out=rows_out or 0, bytes=metrics.work)
        return metrics

    def _run_op(
        self,
        physical: "PhysicalPlan",
        op,
        env: dict[int, Table | Index],
        result: ExecutionResult,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        node_span: Span,
        prepaid: dict[int, Table | None],
    ) -> int | None:
        """Interpret one operator; returns grouping output rows (else None)."""
        registry = self._metrics
        if not registry.enabled:
            return self._interpret_op(
                physical, op, env, result, metrics, dictionaries, node_span,
                prepaid,
            )
        op_started = monotonic()
        try:
            return self._interpret_op(
                physical, op, env, result, metrics, dictionaries, node_span,
                prepaid,
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
        prepaid: dict[int, Table | None],
    ) -> int | None:
        from repro.physical import plan as phys

        with self._tracer.span_under(
            node_span, f"execute.{op.op_name}", op_id=op.op_id
        ) as op_span:
            if isinstance(op, phys.Scan):
                table = self._catalog.get(op.table)
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
                    self._answer(result, op.query, table)
                op_span.set(
                    rows_out=table.num_rows,
                    served=served,
                    derived=op.derived,
                )
                return table.num_rows
            if isinstance(op, phys.Reaggregate):
                table = self._run_reaggregate(
                    physical, op, env, metrics, dictionaries, prepaid
                )
            elif isinstance(op, phys.GroupingOperator):
                table = self._run_grouping(
                    op, env, metrics, dictionaries, prepaid
                )
            elif isinstance(op, phys.CubeExpand):
                self._run_cube_expand(
                    physical, op, env, result, metrics, dictionaries
                )
                op_span.set(queries=len(op.queries))
                return None
            elif isinstance(op, phys.RollupExpand):
                self._run_rollup_expand(
                    physical, op, env, result, metrics, dictionaries
                )
                op_span.set(prefixes=len(op.order) - 1)
                return None
            elif isinstance(op, phys.Materialize):
                self._run_materialize(physical, op, env, metrics)
                return None
            else:
                raise ExecutionError(
                    f"unknown physical operator {op.op_name!r}"
                )
            # Shared tail of the grouping operators.
            if prepaid.get(op.op_id) is not None:
                regime = "morsel"
            elif isinstance(op, phys.Reaggregate):
                regime = op.strategy
            elif isinstance(op, phys.SortGroupBy):
                regime = "sort"
            else:
                regime = "hash"
            env[op.op_id] = table
            if op.query is not None:
                self._answer(result, op.query, table)
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

    def _answer(
        self, result: ExecutionResult, query: tuple[str, ...], table: Table
    ) -> None:
        """Record ``table`` as ``query``'s result, projected to the
        aggregate aliases the query asked for."""
        columns = frozenset(query)
        result.results[columns] = self._query_aggregates.project(
            columns, table
        )

    def _resolve_index(self, table: str, name: str) -> Index:
        for index in self._catalog.indexes_on(table):
            if index.name == name:
                return index
        raise ExecutionError(f"index {name!r} on {table!r} does not exist")

    def _run_grouping(
        self,
        op: "GroupingOperator",
        env: dict[int, Table | Index],
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        prepaid: dict[int, Table | None],
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
        if isinstance(source, Index):
            return source.group_by(
                list(op.keys),
                op.aggregates,
                op.output,
                metrics,
                dictionaries=dictionaries,
                strategy=strategy,
            )
        return self._group_input(
            source, op, op.aggregates, strategy, metrics, dictionaries,
            prepaid,
        )

    def _run_reaggregate(
        self,
        physical: "PhysicalPlan",
        op,
        env: dict[int, Table | Index],
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        prepaid: dict[int, Table | None],
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
        return self._group_input(
            source, op, reaggregate_specs(op.aggregates), op.strategy,
            metrics, dictionaries, prepaid,
        )

    def _group_input(
        self,
        source: Table,
        op: "GroupingOperator",
        aggregates: Sequence[AggregateSpec],
        strategy: str,
        metrics: ExecutionMetrics,
        dictionaries: DictionaryCache,
        prepaid: dict[int, Table | None],
    ) -> Table:
        """Group ``source`` on ``op``'s keys, metered as serial meters it.

        A prepaid grouping adopts its morsel batch's merged result, or
        runs its kernel without touching ``source`` again when the map
        holds None; either way :meth:`_meter_prepaid` meters it.
        """
        if op.partitions > 1:
            return self._group_partitioned(
                source, op, aggregates, metrics, dictionaries, strategy
            )
        paid = op.op_id in prepaid
        table = prepaid.get(op.op_id)
        if table is None:
            table = group_by(
                source,
                list(op.keys),
                aggregates,
                name=op.output,
                metrics=None if paid else metrics,
                dictionaries=dictionaries,
                strategy=strategy,
            )
        if paid:
            self._meter_prepaid(source, metrics)
        return table

    @staticmethod
    def _meter_prepaid(source: Table, metrics: ExecutionMetrics) -> None:
        """Meter a grouping whose pass over ``source`` a wave paid.

        The shared pass (a row-store pass or a morsel batch) did the
        physical traffic.  The *deterministic* counters charge this
        operator what the serial interpreter would: one full scan of
        its input (``scan_bytes`` meters without re-touching memory)
        plus one grouping.  Metrics totals are therefore
        mode-independent while the real memory traffic is what the
        shared pass saves.
        """
        metrics.record_scan(source.num_rows, source.scan_bytes())
        metrics.record_group_by()

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
            op.aggregates,
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
            agg_sig=aggregate_signature(op.aggregates),
        )

    def _group_partitioned(
        self,
        source: Table,
        op: "GroupingOperator",
        aggregates: Sequence[AggregateSpec],
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
        physical: "PhysicalPlan",
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
        aggregates = self._partials_of(physical, op.source)
        # Each grouping encodes what it reads through the plan-wide
        # cache: an eager top.build_dictionaries() here would open a
        # load pool inside the plan's workers.
        for query in op.queries:
            metrics.queries_executed += 1
            table = group_by(
                top,
                list(query),
                aggregates,
                name="cube_" + "_".join(query),
                metrics=metrics,
                dictionaries=dictionaries,
            )
            self._answer(result, query, table)

    def _run_rollup_expand(
        self,
        physical: "PhysicalPlan",
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
        aggregates = self._partials_of(physical, op.source)
        answers = set(op.answers)
        for i in range(len(op.order) - 1, 0, -1):
            prefix = list(op.order[:i])
            metrics.queries_executed += 1
            current = group_by(
                current,
                prefix,
                aggregates,
                name="rollup_" + "_".join(prefix),
                metrics=metrics,
                dictionaries=dictionaries,
            )
            if tuple(sorted(prefix)) in answers:
                self._answer(result, tuple(sorted(prefix)), current)

    @staticmethod
    def _partials_of(
        physical: "PhysicalPlan", top: int
    ) -> list[AggregateSpec]:
        """Re-aggregation specs over the top grouping ``top``'s result."""
        from repro.physical.plan import GroupingOperator as GroupingOp

        grouping = physical.op(top)
        if not isinstance(grouping, GroupingOp):
            raise ExecutionError(
                f"expand reads operator {top}, which is not a grouping"
            )
        return reaggregate_specs(grouping.aggregates)

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

